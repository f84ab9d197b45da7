// Command cescmine infers CESC charts from trace corpora — the inverse
// direction of cescc. It ingests NDJSON tick streams (the daemon's wire
// format; blank lines separate segments) or VCD dumps, mines recurring
// anchored windows into linear scenario charts plus their implication
// views, and — unless -validate=false — holds every candidate to the
// validation gate: zero violations over the source corpus across every
// execution tier and the reference-semantics oracle, and a near-miss
// mutant kill rate of at least -min-kill.
//
// Usage:
//
//	cescmine -name ocp_read -clock ocp_clk testdata/corpus/ocp_fig6_read.ndjson
//	cescmine -props 'MRespAccept' -o mined/ bus.vcd
//
// Charts are written to stdout (or one .cesc per chart under -o), each
// preceded by a gate-stats comment. Exit status: 0 when at least one
// chart survives, 1 when mining or the gate yields nothing, 2 on usage
// or I/O errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/mine"
)

func main() {
	var (
		name       = flag.String("name", "mined", "base name for mined charts")
		clock      = flag.String("clock", "clk", "clock name for single-clock charts")
		minSupport = flag.Int("min-support", 3, "minimum anchor windows per pattern")
		confidence = flag.Float64("confidence", 1.0, "marker/arrow confidence threshold")
		maxWindow  = flag.Int("max-window", 8, "maximum pattern length in ticks")
		negatives  = flag.Bool("negatives", false, "also mine negated (!e) markers")
		align      = flag.Bool("align", false, "anchor at tick 0 of every segment instead of rising edges")
		props      = flag.String("props", "", "comma-separated VCD signals to sample as propositions")
		minKill    = flag.Float64("min-kill", 0.95, "mutant kill rate the validation gate demands")
		seed       = flag.Int64("seed", 1, "seed for mutant sampling")
		validate   = flag.Bool("validate", true, "gate mined charts (corpus soundness + mutant discrimination)")
		outDir     = flag.String("o", "", "write one <chart>.cesc per mined chart into this directory")
		quiet      = flag.Bool("q", false, "suppress per-chart gate reports on stderr")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: cescmine [flags] corpus.ndjson|corpus.vcd ...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	corpus, err := readCorpora(flag.Args(), splitProps(*props))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cescmine: %v\n", err)
		os.Exit(2)
	}

	cfg := mine.Config{
		MinSupport:  *minSupport,
		Confidence:  *confidence,
		MaxWindow:   *maxWindow,
		Negatives:   *negatives,
		AlignTraces: *align,
		Clock:       *clock,
		ChartName:   *name,
		Seed:        *seed,
		MinKill:     *minKill,
	}

	if skipped := corpus.SkippedSymbols(); len(skipped) > 0 && !*quiet {
		fmt.Fprintf(os.Stderr, "skipped %d corpus symbols no chart can name: %s\n",
			len(skipped), strings.Join(skipped, ", "))
	}
	var kept []*mine.Mined
	var stats []string
	if *validate {
		ms, rs, err := mine.MineValidated(corpus, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cescmine: %v\n", err)
			os.Exit(2)
		}
		for i, m := range ms {
			r := rs[i]
			if !*quiet {
				verdict := "PASS"
				if !r.Pass {
					verdict = "REJECT: " + r.Reason
				}
				fmt.Fprintf(os.Stderr, "%s support=%d accepts=%d mutants=%d killed=%d %s\n",
					m.Name, m.Support, r.Accepts, r.Mutants, r.Killed, verdict)
			}
			if r.Pass {
				kept = append(kept, m)
				stats = append(stats, fmt.Sprintf("// support=%d accepts=%d mutants=%d killed=%d",
					m.Support, r.Accepts, r.Mutants, r.Killed))
			}
		}
	} else {
		ms, err := mine.Mine(corpus, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cescmine: %v\n", err)
			os.Exit(2)
		}
		for _, m := range ms {
			kept = append(kept, m)
			stats = append(stats, fmt.Sprintf("// support=%d unvalidated", m.Support))
		}
	}

	if len(kept) == 0 {
		fmt.Fprintln(os.Stderr, "cescmine: no charts survived")
		os.Exit(1)
	}
	if err := emit(kept, stats, *outDir); err != nil {
		fmt.Fprintf(os.Stderr, "cescmine: %v\n", err)
		os.Exit(2)
	}
}

// readCorpora reads every file (format by extension: .vcd is a VCD dump,
// anything else NDJSON) and merges the segments into one corpus.
func readCorpora(files, props []string) (*mine.Corpus, error) {
	merged := &mine.Corpus{}
	for _, f := range files {
		c, err := readCorpus(f, props)
		if err != nil {
			return nil, err
		}
		if len(c.Domains) > 0 {
			if len(files) > 1 {
				return nil, fmt.Errorf("%s: multi-clock corpora cannot be merged across files", f)
			}
			return c, nil
		}
		merged.Segments = append(merged.Segments, c.Segments...)
	}
	return merged, nil
}

func readCorpus(file string, props []string) (*mine.Corpus, error) {
	var r io.Reader
	if file == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	if strings.EqualFold(filepath.Ext(file), ".vcd") {
		return mine.ReadVCD(r, props)
	}
	return mine.ReadNDJSON(r)
}

func splitProps(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// emit writes charts to stdout, or one file per chart when dir is set.
func emit(ms []*mine.Mined, stats []string, dir string) error {
	if dir == "" {
		for i, m := range ms {
			if i > 0 {
				fmt.Println()
			}
			fmt.Println(stats[i])
			fmt.Print(m.Source())
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, m := range ms {
		path := filepath.Join(dir, m.Name+".cesc")
		if err := os.WriteFile(path, []byte(stats[i]+"\n"+m.Source()), 0o644); err != nil {
			return err
		}
		fmt.Println(path)
	}
	return nil
}
