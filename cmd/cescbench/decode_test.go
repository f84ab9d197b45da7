package main

import (
	"testing"

	"repro/internal/event"
)

// TestBatchDecode64TickZeroAlloc holds the BatchDecode64Tick* bodies —
// 64 ticks of Fig. 6/7/8 model traffic as a client encodes them — at 0
// allocs per steady-state decode, the same check PERF_THRESHOLDS.json
// applies to the benchmark rows, on any machine.
func TestBatchDecode64TickZeroAlloc(t *testing.T) {
	figs, err := figBenches()
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range figs {
		t.Run(fig.name, func(t *testing.T) {
			dec, body, err := batchDecodeFixture(fig)
			if err != nil {
				t.Fatal(err)
			}
			var pb event.PackedBatch
			if n, err := dec.Decode(body, &pb, 0); err != nil || n != 64 {
				t.Fatalf("warm decode: n=%d err=%v", n, err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := dec.Decode(body, &pb, 0); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state Decode allocates %.1f/op, want 0", allocs)
			}
		})
	}
}
