// Command experiments regenerates the paper's evaluation: every table and
// figure, printed as text tables.
//
// Usage:
//
//	experiments             # run all paper exhibits
//	experiments -list       # list exhibit IDs
//	experiments -only "Figure 5"
//	experiments -ablations  # run the design-choice ablation studies
//	experiments -extensions # run the beyond-the-paper extension studies
//	experiments -parallel   # run independent exhibits concurrently
//	experiments -parallel -workers 4
//
// -parallel produces byte-identical output to a serial run for any
// worker count; only wall-clock time changes.
//
// The observability flags (-metrics, -trace, -trace-out, -pprof) are
// shared with sudcsim and sudctool and listed once, in package
// sudc/cmd/internal/obsflags; -metrics adds one span per exhibit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sudc/cmd/internal/obsflags"
	"sudc/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	list := fs.Bool("list", false, "list exhibit IDs and exit")
	only := fs.String("only", "", "run a single exhibit by ID (e.g. \"Figure 5\")")
	ablations := fs.Bool("ablations", false, "run the design-choice ablation studies instead")
	extensions := fs.Bool("extensions", false, "run the beyond-the-paper extension studies instead")
	parallel := fs.Bool("parallel", false, "run independent exhibits concurrently (identical output)")
	workers := fs.Int("workers", 0, "worker count for -parallel (default GOMAXPROCS)")
	of := obsflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sess, err := of.Start(out)
	if err != nil {
		return err
	}
	defer sess.Close()
	reg := sess.Registry()

	everything := append(append(experiments.All(), experiments.Ablations()...),
		experiments.Extensions()...)

	if *list {
		for _, e := range everything {
			fmt.Fprintf(out, "%-13s %s\n", e.ID, e.Name)
		}
		return sess.Finish()
	}

	toRun := experiments.All()
	switch {
	case *ablations:
		toRun = experiments.Ablations()
	case *extensions:
		toRun = experiments.Extensions()
	}
	if *only != "" {
		e, err := experiments.ByID(*only)
		if err != nil {
			return err
		}
		toRun = []experiments.Experiment{e}
	}

	if *parallel {
		// Collect every table before printing so output is byte-identical
		// to the serial path regardless of completion order.
		tables, err := experiments.RunAllObserved(toRun, *workers, reg)
		if err != nil {
			return err
		}
		for _, tbl := range tables {
			fmt.Fprintln(out, tbl)
		}
		return sess.Finish()
	}
	for _, e := range toRun {
		sp := reg.StartSpan("experiments/" + e.ID)
		tbl, err := e.Run()
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(out, tbl)
	}
	return sess.Finish()
}
