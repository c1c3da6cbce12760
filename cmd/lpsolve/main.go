// Command lpsolve solves a linear program in MPS format with the repo's
// revised simplex, printing the status, objective and solve statistics.
// It is the interchange endpoint of internal/lp: models exported with
// WriteMPS (or produced by other solvers) run here standalone, and -write
// re-emits the parsed model so external instances can be normalized into
// the dialect the reader pins down.
//
// Usage:
//
//	lpsolve [-pricing devex|dantzig|bland] [-timeout d] [-write out.mps] [-v] model.mps
//
// With no file argument the model is read from standard input.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"greencloud/internal/lp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lpsolve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		pricing = flag.String("pricing", "devex", "pricing rule: devex, dantzig or bland")
		write   = flag.String("write", "", "re-emit the parsed model as MPS to this file ('-' for stdout) instead of solving")
		timeout = flag.Duration("timeout", 0, "solve deadline (e.g. 30s); 0 means none")
		verbose = flag.Bool("v", false, "print variable values and solve statistics")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	switch flag.NArg() {
	case 0:
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("at most one model file, got %d", flag.NArg())
	}

	p, err := lp.ReadMPS(in)
	if err != nil {
		return err
	}

	if *write != "" {
		out := os.Stdout
		if *write != "-" {
			f, err := os.Create(*write)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		return p.WriteMPS(out)
	}

	opts := lp.SolveOptions{}
	switch *pricing {
	case "devex":
		opts.Pricing = lp.PricingDevex
	case "dantzig":
		opts.Pricing = lp.PricingDantzig
	case "bland":
		opts.Pricing = lp.PricingBland
	default:
		return fmt.Errorf("unknown -pricing %q", *pricing)
	}
	if *timeout > 0 {
		opts.Deadline = time.Now().Add(*timeout)
	}

	start := time.Now()
	sol, err := p.SolveWithOptions(opts)
	elapsed := time.Since(start)
	if sol != nil {
		fmt.Printf("status: %s\n", sol.Status)
	}
	if err != nil {
		if sol == nil || (sol.Status != lp.Infeasible && sol.Status != lp.Unbounded) {
			return err
		}
	}
	if sol.Status == lp.Optimal {
		fmt.Printf("objective: %.12g\n", sol.Objective)
	}
	if *verbose {
		st := sol.Stats
		fmt.Printf("rows: %d  cols: %d\n", p.NumConstraints(), p.NumVariables())
		fmt.Printf("pivots: %d  bound flips: %d  refactorizations: %d  solve: %s\n",
			st.Pivots, st.BoundFlips, st.Refactorizations, elapsed.Round(time.Microsecond))
		if sol.Status == lp.Optimal {
			for j, v := range sol.Values() {
				fmt.Printf("X%d = %.12g\n", j, v)
			}
		}
	}
	return nil
}
