package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"blitzcoin"
)

// runFigures is `blitzctl run`: it reproduces figures in-process through
// the registry runner blitzd serves, prints each as "# <Title>" followed
// by its report lines, and with -csv writes each figure's data tables
// into a directory. It returns the exit status: 2 for a usage error, 1
// for a CSV failure, 130 when ctx is cancelled (SIGINT) mid-figure.
func runFigures(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blitzctl run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to reproduce: a registry name or all")
	seed := fs.Uint64("seed", 1, "base random seed")
	trials := fs.Int("trials", 0, "Monte Carlo trials per point (0 = the figure's default)")
	csvDir := fs.String("csv", "", "also write each figure's data as CSV files into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "blitzctl run: unexpected arguments %q\n", fs.Args())
		return 2
	}

	names := []string{*fig}
	if *fig == "all" {
		names = blitzcoin.FigureNames()
	} else if _, ok := blitzcoin.FigureTitle(*fig); !ok {
		fmt.Fprintf(stderr, "blitzctl: unknown figure %q (want all or one of %s)\n",
			*fig, strings.Join(blitzcoin.FigureNames(), ", "))
		return 2
	}
	for _, name := range names {
		if err := (blitzcoin.FigureOptions{Name: name, Seed: *seed, Trials: *trials}).Validate(); err != nil {
			fmt.Fprintf(stderr, "blitzctl: %v\n", err)
			return 2
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "blitzctl: %v\n", err)
			return 1
		}
	}

	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		files := &csvFiles{dir: *csvDir}
		var sink func(string) io.Writer
		if *csvDir != "" {
			sink = files.create
		}
		res, err := blitzcoin.RunFigure(ctx, blitzcoin.FigureOptions{Name: name, Seed: *seed, Trials: *trials}, sink)
		fmt.Fprintf(stdout, "# %s\n", res.Title)
		for _, line := range res.Lines {
			fmt.Fprintln(stdout, line)
		}
		if cerr := files.close(); err == nil {
			err = cerr
		}
		// A cancelled sweep folds only the trials that finished before
		// SIGINT into the rows just printed.
		if ctx.Err() != nil {
			fmt.Fprintln(stdout, "\nblitzctl: interrupted — partial results above (undispatched trials omitted)")
			return 130
		}
		if err != nil {
			fmt.Fprintf(stderr, "blitzctl: %v\n", err)
			return 1
		}
	}
	return 0
}

// csvFiles creates the CSV files one figure asks for under dir. A create
// failure skips that file and is kept for close to report; the os errors
// name the file.
type csvFiles struct {
	dir   string
	files []*os.File
	err   error
}

func (c *csvFiles) create(name string) io.Writer {
	f, err := os.Create(filepath.Join(c.dir, name))
	if err != nil {
		if c.err == nil {
			c.err = err
		}
		return nil
	}
	c.files = append(c.files, f)
	return f
}

// close closes every created file and returns the first create or close
// failure.
func (c *csvFiles) close() error {
	err := c.err
	for _, f := range c.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
