package mine

import (
	"strings"
	"testing"
)

// FuzzMine feeds arbitrary bytes through the whole mining pipeline:
// the corpus reader must reject garbage with an error (never a panic),
// and whatever charts the miner emits must be valid, synthesizable, and
// round-trip the printer and parser byte-identically — Mine itself
// enforces the round trip and reports any breach as an error, which the
// fuzz target escalates to a failure.
func FuzzMine(f *testing.F) {
	f.Add(`{"events":["req"]}` + "\n" + `{"events":["ack"]}` + "\n\n" +
		`{"events":["req"]}` + "\n" + `{"events":["ack"]}` + "\n\n" +
		`{"events":["req"]}` + "\n" + `{"events":["ack"]}` + "\n")
	f.Add(`{"events":["a","b"],"props":{"p":true}}` + "\n" + `{"props":{"p":false}}` + "\n")
	f.Add(`{"domain":"fast","state":{"events":["x"]}}` + "\n" + `{"domain":"slow","state":{"events":["y"]}}` + "\n")
	f.Add("# comment\n{}\n{}\n")
	f.Add(nonIdentCorpus)
	f.Add("{not json")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ReadNDJSON(strings.NewReader(src))
		if err != nil {
			return // malformed corpus: rejected, not mined
		}
		// Bound the work: mining cost scales with ticks × symbols ×
		// window, and synthesis is exponential in line width.
		if c.Ticks() > 512 {
			return
		}
		evs, prs := c.Symbols()
		if len(evs)+len(prs) > 8 {
			return
		}
		for _, sym := range append(append([]string(nil), evs...), prs...) {
			if len(sym) > 64 {
				return
			}
		}
		cfg := Config{MinSupport: 2, MaxWindow: 4, Negatives: true, Seed: 1}
		ms, err := Mine(c, cfg)
		if err != nil {
			t.Fatalf("mined chart broke the round-trip guarantee: %v", err)
		}
		for _, m := range ms {
			res := Validate(m, c, cfg) // must not panic on any corpus
			_ = Shrink(m, c, cfg)
			_ = res
		}
	})
}
