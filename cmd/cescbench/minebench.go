package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/axi"
	"repro/internal/event"
	"repro/internal/mine"
	"repro/internal/ocp"
	"repro/internal/trace"
)

// mineBenches is the spec-mining suite: corpus decode, pattern
// inference alone, the validation gate alone, and the full validated
// pipeline, each on an in-process protocol-model corpus (OCP Fig. 6
// simple reads and AXI4 burst reads; gaps vary per segment so the miner
// sees realistic inter-transaction spacing).
func mineBenches() []namedBench {
	ocpCorpus := modelCorpus(func(gap int) trace.Trace {
		return ocp.NewModel(ocp.Config{Gap: gap, Seed: int64(gap)}).GenerateTrace(160)
	})
	axiCorpus := modelCorpus(func(gap int) trace.Trace {
		return axi.NewModel(axi.Config{Gap: gap, Seed: int64(gap)}).GenerateTrace(200)
	})
	ndjson := encodeNDJSON(ocpCorpus)

	ocpCfg := mine.Config{ChartName: "ocp", Clock: "ocp_clk", Seed: 1}
	axiCfg := mine.Config{ChartName: "axi", Clock: "aclk", Seed: 1}

	return []namedBench{
		{"MineReadNDJSONOcp", func(b *testing.B) {
			b.SetBytes(int64(len(ndjson)))
			for i := 0; i < b.N; i++ {
				if _, err := mine.ReadNDJSON(bytes.NewReader(ndjson)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"MineInferOcpSimpleRead", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mine.Mine(ocpCorpus, ocpCfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"MineValidateGateOcpSimpleRead", func(b *testing.B) {
			ms, err := mine.Mine(ocpCorpus, ocpCfg)
			if err != nil || len(ms) == 0 {
				b.Fatalf("mine: %v (%d charts)", err, len(ms))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, m := range ms {
					mine.Validate(m, ocpCorpus, ocpCfg)
				}
			}
		}},
		{"MineValidatedAxi4Burst", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := mine.MineValidated(axiCorpus, axiCfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// modelCorpus builds one segment per gap in 1..6, mirroring the
// checked-in golden corpora.
func modelCorpus(gen func(gap int) trace.Trace) *mine.Corpus {
	c := &mine.Corpus{}
	for gap := 1; gap <= 6; gap++ {
		c.Segments = append(c.Segments, gen(gap))
	}
	return c
}

// encodeNDJSON renders a corpus in the miner's NDJSON wire format.
func encodeNDJSON(c *mine.Corpus) []byte {
	var b bytes.Buffer
	for si, seg := range c.Segments {
		if si > 0 {
			b.WriteByte('\n')
		}
		for _, st := range seg {
			b.Write(encodeStateJSON(st))
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func encodeStateJSON(st event.State) []byte {
	events := make([]string, 0, len(st.Events))
	for e, v := range st.Events {
		if v {
			events = append(events, e)
		}
	}
	sort.Strings(events)
	line, _ := json.Marshal(struct {
		Events []string        `json:"events"`
		Props  map[string]bool `json:"props,omitempty"`
	}{Events: events, Props: st.Props})
	return line
}

// mineSummary prints the narrative table variant used by the default
// (no -json) report.
func mineSummary() {
	fmt.Println("## Spec mining (corpus → validated charts)")
	fmt.Println()
	for _, bm := range mineBenches() {
		r := testing.Benchmark(func(b *testing.B) { b.ReportAllocs(); bm.fn(b) })
		fmt.Printf("  %-32s %12.0f ns/op %8d allocs/op\n",
			bm.name, float64(r.NsPerOp()), r.AllocsPerOp())
	}
	fmt.Println()
}
