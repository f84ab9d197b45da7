package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() {
	workloadName := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "traffic seed; run i of -repeat uses seed+i")
	seconds := flag.Float64("seconds", defaultSeconds, "measured seconds per run, split evenly between the closed and the open phase")
	trace := flag.Int("trace", 0, "1 traces the run and reports the per-layer budget instead of the end-to-end metrics")
	repeat := flag.Int("repeat", 1, "runs per workload")
	out := flag.String("out", "", "append one JSON line per run to this file")
	agreeSets := flag.Bool("agree", false, "compare two run sets instead of running: cescload -agree a.jsonl b.jsonl")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *agreeSets {
		if flag.NArg() != 2 {
			fatal(errors.New("-agree needs two run files"))
		}
		ok, err := agree(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	if *seconds <= 0 || *repeat < 1 {
		fatal(errors.New("-seconds and -repeat must be positive"))
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{root: root, out: filepath.Join(root, ".bench_build")}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fatal(err)
	}
	if e.cescd, err = buildDaemon(ctx, root, e.out); err != nil {
		fatal(err)
	}
	var runs []*runResult
	for i := 0; i < *repeat; i++ {
		for _, w := range selected {
			r, err := runOnce(ctx, e, w, *seed+int64(i), *seconds, *trace == 1)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			printReport(os.Stdout, r, *seconds)
			if *out != "" {
				if err := appendRun(*out, r); err != nil {
					fatal(err)
				}
			}
			runs = append(runs, r)
		}
	}
	if err := os.RemoveAll(filepath.Join(e.out, "run")); err != nil {
		fatal(err)
	}
	final := summarize(runs, len(selected) > 1)
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cescload:", err)
	os.Exit(1)
}

// printReport writes one run's metrics by name with unit and sample
// count, then the correctness gate's verdict.
func printReport(w *os.File, r *runResult, seconds float64) {
	mode := "untraced"
	defs := endToEnd
	if r.Trace == 1 {
		mode, defs = "traced", append(append([]metricDef(nil), perLayer...), endToEnd...)
	}
	fmt.Fprintf(w, "== %s seed %d, %s: closed %gs + open %gs\n", r.Workload, r.Seed, mode, seconds/2, seconds/2)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %-8s %s\n", d.name, r.values[d.name], d.unit, r.notes[d.name])
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-8s %d of %d requests failed or were refused\n", "fail_ratio", ratio(float64(r.Failed), float64(r.Attempted)), "1", r.Failed, r.Attempted)
	if r.budget != "" {
		fmt.Fprintf(w, "  budget: %s\n", r.budget)
		fmt.Fprintf(w, "  tracing overhead: %s; spans in %s\n", r.notes["loadgen.trace_overhead_pct"], r.notes["spans"])
	}
	if r.Correct {
		fmt.Fprintln(w, "  gate: ok, every verdict matches the reference engine")
	} else {
		fmt.Fprintf(w, "  gate: FAILED: %s\n", strings.Join(r.Problems, "; "))
	}
}

// appendRun adds one JSON line to a run-set file.
func appendRun(path string, r *runResult) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// result is the final line of standard output: correctness, request
// counts and metrics. With several workloads or repeats each metric is
// the median over runs, and several workloads prefix it with the
// workload's name.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func summarize(runs []*runResult, prefix bool) result {
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	values := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, m := range r.Metrics {
			if prefix {
				name = r.Workload + "." + name
			}
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	for name, v := range values {
		out.Metrics[name] = metricValue{Value: medianFloat(v), Unit: units[name]}
	}
	return out
}
