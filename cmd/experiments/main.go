// Command experiments regenerates the paper's tables and figures.  Each
// experiment prints the rows/series the paper plots; pass -exp all to run
// the full evaluation, or a single ID such as -exp fig8.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"greencloud/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp     = flag.String("exp", "all", "experiment to run: all, or one of "+strings.Join(experiments.IDs(), ", "))
		full    = flag.Bool("full", false, "use the paper-scale catalog and search budgets (slow)")
		seed    = flag.Int64("seed", 1, "random seed for the synthetic catalog")
		timeout = flag.Duration("timeout", 0, "overall wall-clock budget (e.g. 5m); 0 means no limit. Experiments finished before the deadline are still printed.")
		verbose = flag.Bool("v", false, "add solver-internals columns (LP pivots, warm-start fallbacks) to the LP-backed tables")
	)
	flag.Parse()

	budget := experiments.Quick
	if *full {
		budget = experiments.Full
	}
	cfg := experiments.Config{Budget: budget, Seed: *seed, Verbose: *verbose}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Ctx = ctx
	}
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return err
	}

	if *exp == "all" {
		tables, err := suite.All()
		for _, t := range tables {
			fmt.Println(t.String())
		}
		return err
	}
	table, err := suite.Run(*exp)
	if err != nil {
		return err
	}
	fmt.Println(table.String())
	return nil
}
