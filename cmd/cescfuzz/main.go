// Command cescfuzz runs the generative conformance campaign: random
// well-formed CESC charts and adversarial traces, differentially checked
// against the reference semantics across every execution tier, the
// daemon's ingest paths, and crash/recovery. Divergences are shrunk and
// written as replayable regressions.
//
// Usage:
//
//	cescfuzz -n 500 -seed 1 -out testdata/regressions
//
// The process exits 1 when any divergence is found, printing a
// reproduce line for each.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/conformance"
)

func main() {
	var (
		n             = flag.Int("n", 500, "number of single-clock charts to draw")
		seed          = flag.Int64("seed", 1, "campaign seed (same seed, same campaign)")
		ticks         = flag.Int("ticks", 40, "ticks per generated trace")
		traces        = flag.Int("traces", 2, "adversarial traces per chart")
		asyncN        = flag.Int("async", 0, "multi-clock charts to draw (default n/10)")
		serverEvery   = flag.Int("server-every", 10, "route every k-th chart through a live cescd (-1 disables)")
		recoveryEvery = flag.Int("recovery-every", 2, "crash-recover every k-th server run (-1 disables)")
		pageEvery     = flag.Int("page-every", 3, "page every k-th server run's sessions out between batches (-1 disables)")
		mineEvery     = flag.Int("mine-every", 5, "run the spec-mining round trip on every k-th chart (-1 disables)")
		out           = flag.String("out", "testdata/regressions", "directory for shrunk replayable regressions")
		quiet         = flag.Bool("q", false, "suppress progress lines")
		replay        = flag.Bool("replay", false, "replay the regression corpus in -out instead of fuzzing")
	)
	flag.Parse()

	if *replay {
		ds, err := conformance.ReplayDir(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cescfuzz: %v\n", err)
			os.Exit(2)
		}
		for _, d := range ds {
			fmt.Printf("STILL DIVERGES %s: %s\n", d.File, d.Detail)
		}
		if len(ds) > 0 {
			os.Exit(1)
		}
		fmt.Printf("regression corpus in %s replays clean\n", *out)
		return
	}

	cfg := conformance.Config{
		Seed:           *seed,
		Charts:         *n,
		TracesPerChart: *traces,
		TraceLen:       *ticks,
		AsyncCharts:    *asyncN,
		ServerEvery:    *serverEvery,
		RecoveryEvery:  *recoveryEvery,
		PageEvery:      *pageEvery,
		MineEvery:      *mineEvery,
		RegressionDir:  *out,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	rep, err := conformance.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cescfuzz: harness error: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("seed=%d charts=%d traces=%d assert-violating=%d async=%d server-runs=%d recoveries=%d pageouts=%d mine-runs=%d divergences=%d\n",
		rep.Seed, rep.Charts, rep.Traces, rep.AssertViolating, rep.AsyncCharts, rep.ServerRuns, rep.Recoveries, rep.Pageouts, rep.MineRuns, len(rep.Divergences))
	for _, d := range rep.Divergences {
		fmt.Printf("DIVERGENCE %s\n", d)
		if d.File != "" {
			fmt.Printf("  regression: %s/%s.cesc (reproduce: cescfuzz -replay -out %s)\n", *out, d.File, *out)
		}
		fmt.Printf("  reproduce campaign: cescfuzz -n %d -seed %d -ticks %d -traces %d\n",
			*n, rep.Seed, *ticks, *traces)
	}
	if len(rep.Divergences) > 0 {
		os.Exit(1)
	}
}
