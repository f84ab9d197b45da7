package conformance

import (
	"testing"
)

// TestCampaignFixedSeed runs a deliberately small deterministic campaign
// as part of tier-1: every execution tier, the oracle sandwich, the
// server round trip, and crash recovery must agree on every draw. The
// full-size campaign (N=500) runs as `make conformance`.
func TestCampaignFixedSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign spins up live servers; skipped in -short")
	}
	rep, err := Run(Config{Seed: 1, Charts: 40, ServerEvery: 10})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if rep.ServerRuns == 0 || rep.Recoveries == 0 {
		t.Fatalf("campaign exercised no server runs (%d) or recoveries (%d)", rep.ServerRuns, rep.Recoveries)
	}
	if rep.MineRuns == 0 {
		t.Fatalf("campaign exercised no spec-mining round trips")
	}
	if rep.AssertViolating == 0 {
		t.Fatalf("no campaign trace raised an assert violation; the assert tier checks compared nothing")
	}
	for _, d := range rep.Divergences {
		t.Errorf("%s\n%s", d, d.Source)
	}
}

// TestRegressionsReplay replays every shrunk divergence ever found by a
// campaign — the corpus under testdata/regressions is append-only, so a
// fixed bug stays fixed.
func TestRegressionsReplay(t *testing.T) {
	ds, err := ReplayDir("../../testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		t.Errorf("regression %s reproduces again: %s", d.File, d.Detail)
	}
}
