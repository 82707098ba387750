// Command papertables regenerates the paper's evaluation: every row of
// Table 1 (E1–E6), the figure reproductions (F1, F2) and the lemma-level
// measurements (X1–X7). See DESIGN.md §3 for the experiment index.
//
// Usage:
//
//	papertables [-scale quick|full] [-seed N] [-only E1,E5,X2] [-workers N]
//
// Quick scale finishes in seconds; full scale runs the sweeps of the
// experiment index in DESIGN.md §3 (E1–E6, F1–F2, X1–X9) at their full
// sizes (minutes).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rotorring/internal/expt"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "papertables:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("papertables", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "quick", "sweep scale: quick or full")
	seed := fs.Uint64("seed", 20230601, "seed for randomized components")
	only := fs.String("only", "", "comma-separated experiment ids (default: all)")
	format := fs.String("format", "text", "output format: text or csv")
	workers := fs.Int("workers", 0, "experiment engine worker pool size (0 = GOMAXPROCS); never affects results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want text or csv)", *format)
	}
	scale, err := expt.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	cfg := expt.Config{Scale: scale, Seed: *seed, Workers: *workers}

	var selected []*expt.Experiment
	if *only == "" {
		selected = expt.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			e, ok := expt.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			selected = append(selected, e)
		}
	}

	if *format == "text" {
		fmt.Fprintf(out, "rotorring paper-table reproduction (scale=%s, seed=%d)\n", *scaleFlag, *seed)
		fmt.Fprintf(out, "paper: Klasing, Kosowski, Pająk, Sauerwald — The multi-agent rotor-router on the ring (PODC 2013 / DC 2017)\n\n")
	}

	failures := 0
	for _, e := range selected {
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, s := range res.Shapes {
			if !s.OK {
				failures++
			}
		}
		if *format == "csv" {
			for _, tab := range res.Tables {
				if err := tab.WriteCSV(out); err != nil {
					return fmt.Errorf("%s: %w", e.ID, err)
				}
				fmt.Fprintln(out)
			}
			continue
		}
		fmt.Fprintf(out, "=== %s — %s\n    claim: %s\n\n", e.ID, e.PaperRef, e.Claim)
		res.Render(out)
		fmt.Fprintf(out, "    (%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failures > 0 {
		return fmt.Errorf("%d shape check(s) failed", failures)
	}
	if *format == "text" {
		fmt.Fprintln(out, "all shape checks hold")
	}
	return nil
}
