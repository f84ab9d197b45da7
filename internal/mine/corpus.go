// Package mine infers CESC charts from trace corpora — the inverse of
// the synthesis pipeline. Where internal/synth compiles a hand-written
// chart into a monitor, mine reads a corpus of communication traces
// (NDJSON tick streams or VCD dumps), discovers recurring anchored tick
// windows whose per-offset event/prop invariants clear configurable
// support and confidence thresholds, infers causality arrows from
// inverse confidence, and emits the result as well-formed linear CESC
// charts through the canonical printer so they round-trip the parser.
//
// Mined charts are validated, never trusted: Validate compiles each
// candidate with internal/synth, replays the source corpus through
// every execution tier and the internal/semantics oracle demanding zero
// violations (soundness on the corpus), and checks discrimination
// against constructed near-miss mutants (non-vacuity). Shrink then
// drops over-specific decorations that the gate proves redundant.
package mine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/event"
	"repro/internal/trace"
)

// tickJSON mirrors the daemon's NDJSON tick wire format (StateJSON in
// internal/server, not imported here to keep server → mine acyclic).
// Domain-tagged lines use the conformance regression global-tick form.
type tickJSON struct {
	Events []string        `json:"events,omitempty"`
	Props  map[string]bool `json:"props,omitempty"`

	Domain string    `json:"domain,omitempty"`
	Time   int64     `json:"time,omitempty"`
	State  *tickJSON `json:"state,omitempty"`
}

func (t tickJSON) toState() event.State {
	s := event.NewState()
	src := t
	if t.State != nil {
		src = *t.State
	}
	for _, e := range src.Events {
		s.Events[e] = true
	}
	for p, v := range src.Props {
		s.Props[p] = v
	}
	return s
}

// Corpus is a set of trace segments to mine. Segments are independent
// observations: windows never span a segment boundary, and in
// trace-aligned mode each segment contributes exactly one anchor.
// Multi-clock corpora additionally carry per-domain projections keyed by
// clock-domain name.
type Corpus struct {
	// Segments holds the single-clock (or already projected) traces.
	Segments []trace.Trace
	// Domains maps a clock-domain name to its per-domain segments, when
	// the corpus was domain-tagged. Single-clock corpora leave it nil.
	Domains map[string][]trace.Trace
}

// Ticks returns the total number of ticks across all segments.
func (c *Corpus) Ticks() int {
	n := 0
	for _, s := range c.Segments {
		n += len(s)
	}
	return n
}

// DomainNames returns the sorted clock-domain names of a multi-clock
// corpus (nil for single-clock).
func (c *Corpus) DomainNames() []string {
	if len(c.Domains) == 0 {
		return nil
	}
	names := make([]string, 0, len(c.Domains))
	for d := range c.Domains {
		names = append(names, d)
	}
	sort.Strings(names)
	return names
}

// Symbols returns every event and prop name occurring in the corpus,
// each sorted.
func (c *Corpus) Symbols() (events, props []string) {
	evs := map[string]bool{}
	prs := map[string]bool{}
	collect := func(segs []trace.Trace) {
		for _, seg := range segs {
			for _, st := range seg {
				for e := range st.Events {
					evs[e] = true
				}
				for p := range st.Props {
					prs[p] = true
				}
			}
		}
	}
	collect(c.Segments)
	for _, segs := range c.Domains {
		collect(segs)
	}
	for e := range evs {
		events = append(events, e)
	}
	for p := range prs {
		props = append(props, p)
	}
	sort.Strings(events)
	sort.Strings(props)
	return events, props
}

// SkippedSymbols lists, sorted, the corpus symbols Mine skips because
// no chart can name them: events and props that are not CESC
// identifiers, and props named true or false.
func (c *Corpus) SkippedSymbols() []string {
	evs, prs := c.Symbols()
	seen := map[string]bool{}
	var out []string
	for i, names := range [][]string{evs, prs} {
		for _, n := range names {
			if !mineable(n, i == 1) && !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// maxLine bounds a single NDJSON line (same order as the daemon's ingest
// limit); longer lines are a corpus error, not a crash.
const maxLine = 1 << 20

// ReadNDJSON parses an NDJSON tick corpus: one JSON tick per line in the
// daemon's ingest wire format ({"events":[...],"props":{...}}), blank
// lines separating independent trace segments, and '#'-prefixed comment
// lines ignored. Lines carrying a "domain" field (the conformance
// global-tick form) build a multi-clock corpus instead: ticks are
// projected per domain, preserving order within each segment.
func ReadNDJSON(r io.Reader) (*Corpus, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	c := &Corpus{}
	var cur trace.Trace
	curDomains := map[string]trace.Trace{}
	lineNo := 0
	flush := func() {
		if len(cur) > 0 {
			c.Segments = append(c.Segments, cur)
			cur = nil
		}
		if len(curDomains) > 0 {
			if c.Domains == nil {
				c.Domains = map[string][]trace.Trace{}
			}
			for d, seg := range curDomains {
				c.Domains[d] = append(c.Domains[d], seg)
			}
			curDomains = map[string]trace.Trace{}
		}
	}
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		trimmed := 0
		for trimmed < len(line) && (line[trimmed] == ' ' || line[trimmed] == '\t' || line[trimmed] == '\r') {
			trimmed++
		}
		line = line[trimmed:]
		if len(line) == 0 {
			flush()
			continue
		}
		if line[0] == '#' {
			continue
		}
		var t tickJSON
		if err := json.Unmarshal(line, &t); err != nil {
			return nil, fmt.Errorf("corpus line %d: %w", lineNo, err)
		}
		if t.Domain != "" {
			curDomains[t.Domain] = append(curDomains[t.Domain], t.toState())
		} else {
			cur = append(cur, t.toState())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("corpus line %d: %w", lineNo+1, err)
	}
	flush()
	if len(c.Segments) == 0 && len(c.Domains) == 0 {
		return nil, fmt.Errorf("empty corpus")
	}
	if len(c.Segments) > 0 && len(c.Domains) > 0 {
		return nil, fmt.Errorf("corpus mixes domain-tagged and untagged ticks")
	}
	return c, nil
}

// ReadVCD parses a VCD dump into a single-segment corpus via the
// streaming decoder. Signals named in props are sampled as propositions
// (level-significant); every other 1-bit signal is an event (a tick
// carries the event when the signal is high).
func ReadVCD(r io.Reader, props []string) (*Corpus, error) {
	isProp := make(map[string]bool, len(props))
	for _, p := range props {
		isProp[p] = true
	}
	kindOf := func(name string) event.Kind {
		if isProp[name] {
			return event.KindProp
		}
		return event.KindEvent
	}
	var seg trace.Trace
	err := trace.StreamVCD(r, kindOf, func(s event.State) error {
		seg = append(seg, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(seg) == 0 {
		return nil, fmt.Errorf("empty corpus")
	}
	return &Corpus{Segments: []trace.Trace{seg}}, nil
}
