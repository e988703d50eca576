// Command figures regenerates the paper's evaluation artifacts: Figure 11
// (profiling/analysis overhead), Figure 12 (prefetching performance),
// Table 2 (detailed characterization), the §4.3 head-length ablation, and
// the §5.1 hardware prefetcher comparison.
//
// Usage:
//
//	figures [-fig 11|12] [-table 2] [-ablation name] [-bench name] [-all] [-format text|csv|chart]
//
// With no flags, -all is assumed. Each artifact prints the corresponding
// paper values alongside so the shapes can be compared directly.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"hotprefetch/internal/burst"
	"hotprefetch/internal/experiment"
	"hotprefetch/internal/sequitur"
	"hotprefetch/internal/stats"
	"hotprefetch/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	fig := flag.Int("fig", 0, "regenerate figure 11 or 12")
	table := flag.Int("table", 0, "regenerate table 2")
	ablation := flag.String("ablation", "", "run an ablation: headlen, hardware, static, schedule, stability, motivation, sampling, prepass, reuse, or predictors")
	bench := flag.String("bench", "", "restrict to one benchmark (default: all six)")
	all := flag.Bool("all", false, "regenerate everything")
	format := flag.String("format", "text", "output format for figures/tables: text, csv, or chart")
	flag.Parse()

	if *fig == 0 && *table == 0 && *ablation == "" {
		*all = true
	}

	var params []workload.Params
	if *bench != "" {
		p, ok := workload.ByName(*bench)
		if !ok {
			log.Fatalf("unknown benchmark %q", *bench)
		}
		params = []workload.Params{p}
	}

	known := *ablation == ""
	for _, a := range ablations {
		known = known || a.name == *ablation
	}
	if !known {
		log.Fatalf("unknown ablation %q", *ablation)
	}

	csv := *format == "csv"
	chartFmt := *format == "chart"
	if *format != "text" && *format != "csv" && *format != "chart" {
		log.Fatalf("unknown format %q", *format)
	}
	if *all || *fig == 11 {
		runs, err := experiment.Figure11(params)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case csv:
			fmt.Print(stats.CSVFigure11(runs))
		case chartFmt:
			fmt.Println(stats.ChartFigure11(runs))
		default:
			fmt.Println(stats.RenderFigure11(runs))
		}
	}
	if *all || *fig == 12 {
		runs, err := experiment.Figure12(params)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case csv:
			fmt.Print(stats.CSVFigure12(runs))
		case chartFmt:
			fmt.Println(stats.ChartFigure12(runs))
		default:
			fmt.Println(stats.RenderFigure12(runs))
		}
	}
	if *all || *table == 2 {
		runs, err := experiment.Table2(params)
		if err != nil {
			log.Fatal(err)
		}
		if csv {
			fmt.Print(stats.CSVTable2(runs))
		} else {
			fmt.Println(stats.RenderTable2(runs))
		}
	}
	for _, a := range ablations {
		if *all || *ablation == a.name {
			out, err := a.run(params)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(out)
		}
	}
	if !*all && *fig != 0 && *fig != 11 && *fig != 12 {
		fmt.Fprintln(os.Stderr, "only figures 11 and 12 exist in the paper")
		os.Exit(2)
	}
}

// ablation is one -ablation study: its flag value and the report it prints.
// params restricts the benchmarks (nil means the study's default set).
type ablation struct {
	name string
	run  func(params []workload.Params) (string, error)
}

// ablations lists the studies in the order -all prints them.
var ablations = []ablation{
	{"headlen", func(params []workload.Params) (string, error) {
		p := workload.Vpr()
		if len(params) == 1 {
			p = params[0]
		}
		results, err := experiment.AblationHeadLen(p, nil)
		return stats.RenderHeadLen(p.Name, results), err
	}},
	{"hardware", func(params []workload.Params) (string, error) {
		results, err := experiment.HardwareComparison(params)
		return stats.RenderHardware(results), err
	}},
	{"static", func(params []workload.Params) (string, error) {
		results, err := experiment.StaticVsDynamic(params)
		return stats.RenderStaticDyn(results), err
	}},
	{"schedule", func(params []workload.Params) (string, error) {
		p := workload.Mcf()
		if len(params) == 1 {
			p = params[0]
		}
		results, err := experiment.AblationScheduling(p, nil)
		return stats.RenderScheduling(p.Name, results), err
	}},
	{"stability", func(params []workload.Params) (string, error) {
		results, err := experiment.ProfileStability(params, 0)
		return stats.RenderStability(results), err
	}},
	{"motivation", func(params []workload.Params) (string, error) {
		results, err := experiment.Motivation(params, 0)
		return stats.RenderMotivation(results), err
	}},
	{"sampling", func(params []workload.Params) (string, error) {
		var out []string
		for _, cfg := range []struct {
			title string
			bcfg  burst.Config
		}{
			{"paper 0.5% rate, 60-ref bursts", experiment.PaperSamplingConfig()},
			{"scaled 5% rate, 60-ref bursts", experiment.ScaledSamplingConfig()},
		} {
			results, err := experiment.SamplingComparison(params, 0, cfg.bcfg)
			if err != nil {
				return "", err
			}
			out = append(out, stats.RenderSampling(cfg.title, results))
		}
		return strings.Join(out, "\n"), nil
	}},
	{"prepass", func(params []workload.Params) (string, error) {
		results, err := experiment.PrepassComparison(params, 0, sequitur.PrepassConfig{})
		return stats.RenderPrepass(results), err
	}},
	{"reuse", func(params []workload.Params) (string, error) {
		results, err := experiment.ReuseDistances(params, 0)
		return stats.RenderReuse(results), err
	}},
	{"predictors", func(params []workload.Params) (string, error) {
		results, err := experiment.PredictorComparison(params, 0)
		return stats.RenderPredictors(results), err
	}},
}
