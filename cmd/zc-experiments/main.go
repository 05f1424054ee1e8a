// Command zc-experiments regenerates the paper's evaluation tables and
// figures as text tables: Fig 6 (network + latency), Fig 7 (CPU + memory),
// Fig 8 (view-change timeline), Fig 9 (Byzantine behaviour), Table II
// (export latency), and the JRU requirements check.
//
// Usage:
//
//	zc-experiments -exp all
//	zc-experiments -exp fig6 -cycles 150 -timescale 4
//	zc-experiments -exp table2
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"zugchain/internal/experiments"
	"zugchain/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zc-experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp       = flag.String("exp", "all", "experiment: fig6|fig7|fig8|fig9|table2|jru|ablations|all")
		cycles    = flag.Int("cycles", 100, "bus cycles per scenario")
		timeScale = flag.Int("timescale", 8, "time compression (1 = paper-real time)")
		seed      = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	opt := experiments.Options{Cycles: *cycles, TimeScale: *timeScale, Seed: *seed}
	run := func(name string, f func() error) error {
		start := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("(%s finished in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	all := *exp == "all"
	if all || *exp == "fig6" {
		if err := run("fig6", func() error { return runFig6(opt) }); err != nil {
			return err
		}
	}
	if all || *exp == "fig7" {
		if err := run("fig7", func() error { return runFig7(opt) }); err != nil {
			return err
		}
	}
	if all || *exp == "fig8" {
		if err := run("fig8", func() error { return runFig8(opt) }); err != nil {
			return err
		}
	}
	if all || *exp == "fig9" {
		if err := run("fig9", func() error { return runFig9(opt) }); err != nil {
			return err
		}
	}
	if all || *exp == "table2" {
		if err := run("table2", runTable2); err != nil {
			return err
		}
	}
	if all || *exp == "ablations" {
		if err := run("ablations", func() error { return runAblations(opt) }); err != nil {
			return err
		}
	}
	if all || *exp == "jru" {
		if err := run("jru", func() error { return runJRU(opt) }); err != nil {
			return err
		}
	}
	return nil
}

func runFig6(opt experiments.Options) error {
	rows, err := experiments.Fig6BusCycles(opt)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatComparison(
		"Fig 6 (left): network utilization and latency vs bus cycle (payload 1kB)", rows, "fig6"))
	fmt.Println()
	rows, err = experiments.Fig6Payloads(opt)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatComparison(
		"Fig 6 (right): network utilization and latency vs payload size (cycle 64ms)", rows, "fig6"))
	return nil
}

func runFig7(opt experiments.Options) error {
	rows, err := experiments.Fig7BusCycles(opt)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatComparison(
		"Fig 7 (left): CPU and memory proxies vs bus cycle (payload 1kB)", rows, "fig7"))
	fmt.Println()
	rows, err = experiments.Fig7Payloads(opt)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatComparison(
		"Fig 7 (right): CPU and memory proxies vs payload size (cycle 64ms)", rows, "fig7"))
	return nil
}

func runFig8(opt experiments.Options) error {
	zc, err := experiments.Fig8(testbed.ZugChain, opt)
	if err != nil {
		return err
	}
	bl, err := experiments.Fig8(testbed.Baseline, opt)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFig8(zc, bl))
	fmt.Println("\nZugChain latency timeline around the fault (t=0):")
	printTimeline(zc)
	fmt.Println("\nBaseline latency timeline around the fault (t=0):")
	printTimeline(bl)
	return nil
}

func printTimeline(r *experiments.Fig8Result) {
	printed := 0
	for _, p := range r.Timeline {
		if p.Since < -500*time.Millisecond || p.Since > 2*time.Second {
			continue
		}
		fmt.Printf("  t=%8v  latency=%v\n",
			p.Since.Round(time.Millisecond), p.Latency.Round(time.Millisecond))
		printed++
		if printed >= 40 {
			fmt.Println("  ...")
			break
		}
	}
}

func runFig9(opt experiments.Options) error {
	rows, err := experiments.Fig9(opt)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFig9(rows))
	return nil
}

func runAblations(opt experiments.Options) error {
	rows, err := experiments.AblationCheckpointInterval(opt)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAblation(
		"Ablation: checkpoint interval (64ms cycle, 1kB payload, a block per slot)", rows))
	fmt.Println()
	rows, err = experiments.AblationSoftTimeout(opt)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatAblation(
		"Ablation: soft+hard timeout bounding view-change recovery (primary killed mid-run, hard fixed 250ms)", rows))
	return nil
}

func runTable2() error {
	rows, err := experiments.TableII(experiments.TableIIOptions{})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTableII(rows))
	return nil
}

func runJRU(opt experiments.Options) error {
	dir, err := os.MkdirTemp("", "zc-jru-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	check, err := experiments.RunJRUCheck(dir, opt)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatJRU(check))
	return nil
}
