package mine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/chart"
	"repro/internal/expr"
	"repro/internal/parser"
	"repro/internal/trace"
)

// Config tunes the miner.
type Config struct {
	// MinSupport is the minimum number of anchor windows a pattern (and
	// every grid line of it) must be observed in. Default 3.
	MinSupport int
	// Confidence is the fraction of covering windows in which an event
	// must occur to become a positive marker, and the inverse-confidence
	// bar for causality arrows. Default 1.0 (exact invariants).
	Confidence float64
	// MaxWindow bounds the pattern length in ticks. Default 8.
	MaxWindow int
	// Negatives additionally emits negated markers (!e) for events that
	// never occur at an offset but do occur elsewhere in the corpus.
	Negatives bool
	// AlignTraces anchors one window at tick 0 of every corpus segment
	// instead of discovering rising-edge anchors — the mode used by the
	// conformance round-trip, where each segment is one chart witness.
	AlignTraces bool
	// Clock names the clock of mined single-clock charts. Default "clk".
	// Multi-clock corpora use the domain name instead.
	Clock string
	// ChartName is the base name for mined charts. Default "mined".
	ChartName string
	// Seed drives mutant sampling during validation.
	Seed int64
	// MinKill is the near-miss mutant kill rate the validation gate
	// demands. Default 0.95.
	MinKill float64
	// MutantsPerMarker caps the windows mutated per marker. Default 4.
	MutantsPerMarker int
}

func (cfg Config) withDefaults() Config {
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = 3
	}
	if cfg.Confidence <= 0 {
		cfg.Confidence = 1.0
	}
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = 8
	}
	if cfg.Clock == "" {
		cfg.Clock = "clk"
	}
	if cfg.ChartName == "" {
		cfg.ChartName = "mined"
	}
	if cfg.MinKill <= 0 {
		cfg.MinKill = 0.95
	}
	if cfg.MutantsPerMarker <= 0 {
		cfg.MutantsPerMarker = 4
	}
	return cfg
}

// Mined is one inferred pattern in both of its chart views: the linear
// scenario SCESC carrying every grid line plus the causality arrows
// (the paper's Fig. 6 idiom, run in detect mode), and the implication
// chart asserting "whenever the anchor line matches, the remaining
// lines must follow" (the view the validation gate monitors for
// violations).
type Mined struct {
	// Name is the scenario chart name.
	Name string
	// Anchor is the rising-edge anchor event ("" in trace-aligned mode).
	Anchor string
	// Domain is the clock domain mined from ("" for single-clock).
	Domain string
	// Support is the number of anchor windows the pattern was mined from.
	Support int
	// Scenario is the linear SCESC view (all lines, labels, arrows).
	Scenario *chart.SCESC
	// Assert is the implication view used by the validation gate.
	Assert *chart.Implies

	// windows are the anchor positions the pattern was mined from,
	// retained for validation-time mutant construction.
	windows []anchorAt
}

type anchorAt struct {
	seg  int // index into the mined segment slice
	tick int
}

// Source renders both chart views as one canonical .cesc file.
func (m *Mined) Source() string {
	return parser.Print(m.Name, m.Scenario) + parser.Print(m.Name+"_assert", m.Assert)
}

// Mine infers charts from the corpus. Single-clock corpora are mined
// directly; domain-tagged corpora are mined per clock domain with the
// domain name as the chart clock. Results are deterministic for a given
// corpus and config, sorted by chart name, and every emitted chart is
// guaranteed to round-trip the printer and the parser. Symbols that are
// not CESC identifiers never reach a chart: Mine skips them, and
// Corpus.SkippedSymbols lists them.
func Mine(c *Corpus, cfg Config) ([]*Mined, error) {
	cfg = cfg.withDefaults()
	var out []*Mined
	if len(c.Domains) > 0 {
		for _, d := range c.DomainNames() {
			sub := cfg
			sub.Clock = d
			sub.ChartName = cfg.ChartName + "_" + sanitizeIdent(d)
			ms, err := mineSegments(c.Domains[d], sub)
			if err != nil {
				return nil, err
			}
			for _, m := range ms {
				m.Domain = d
			}
			out = append(out, ms...)
		}
	} else {
		ms, err := mineSegments(c.Segments, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// MineValidated runs the full pipeline — mine, shrink, validate — and
// returns every mined chart with its gate verdict (aligned slices).
// Only charts whose Result.Pass is true should be trusted; shrinking
// has already been applied in place.
func MineValidated(c *Corpus, cfg Config) ([]*Mined, []*Result, error) {
	ms, err := Mine(c, cfg)
	if err != nil {
		return nil, nil, err
	}
	results := make([]*Result, len(ms))
	for i, m := range ms {
		results[i] = Shrink(m, c, cfg)
		if results[i].Pass {
			if err := checkRoundTrip(m); err != nil {
				return nil, nil, err
			}
		}
	}
	return ms, results, nil
}

// mineSegments runs anchor discovery and window statistics over one
// segment set.
func mineSegments(segs []trace.Trace, cfg Config) ([]*Mined, error) {
	events, props := segmentSymbols(segs)
	if len(events) == 0 {
		return nil, nil
	}

	type candidate struct {
		anchor  string
		windows []anchorAt
	}
	var cands []candidate
	if cfg.AlignTraces {
		var ws []anchorAt
		for i, seg := range segs {
			if len(seg) > 0 {
				ws = append(ws, anchorAt{seg: i, tick: 0})
			}
		}
		cands = append(cands, candidate{anchor: "", windows: ws})
	} else {
		for _, a := range events {
			var ws []anchorAt
			for i, seg := range segs {
				for t, st := range seg {
					if st.Events[a] && (t == 0 || !seg[t-1].Events[a]) {
						ws = append(ws, anchorAt{seg: i, tick: t})
					}
				}
			}
			cands = append(cands, candidate{anchor: a, windows: ws})
		}
	}

	var out []*Mined
	seen := map[string]bool{}
	for _, cand := range cands {
		if len(cand.windows) < cfg.MinSupport {
			continue
		}
		m := minePattern(segs, events, props, cand.anchor, cand.windows, cfg)
		if m == nil {
			continue
		}
		key := patternKey(m.Scenario)
		if seen[key] {
			continue
		}
		seen[key] = true
		if err := checkRoundTrip(m); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// minePattern computes the per-offset invariants of one anchor's aligned
// windows and assembles the two chart views. Returns nil when no pattern
// of length ≥ 2 clears the thresholds.
func minePattern(segs []trace.Trace, events, props []string, anchor string, windows []anchorAt, cfg Config) *Mined {
	W := cfg.MaxWindow
	cover := make([]int, W)
	pos := make([]map[string]int, W)
	propTrue := make([]map[string]int, W)
	for d := 0; d < W; d++ {
		pos[d] = map[string]int{}
		propTrue[d] = map[string]int{}
	}
	for _, w := range windows {
		seg := segs[w.seg]
		for d := 0; d < W && w.tick+d < len(seg); d++ {
			cover[d]++
			st := seg[w.tick+d]
			for e, v := range st.Events {
				if v {
					pos[d][e]++
				}
			}
			for p, v := range st.Props {
				if v {
					propTrue[d][p]++
				}
			}
		}
	}

	// A grid line exists at offset d when enough windows still cover it;
	// the pattern ends at the last offset holding a positive marker.
	type marker struct {
		event   string
		negated bool
	}
	lines := make([][]marker, 0, W)
	conds := make([][]expr.Expr, 0, W)
	last := -1
	for d := 0; d < W; d++ {
		if cover[d] < cfg.MinSupport {
			break
		}
		var ms []marker
		for _, e := range events {
			n := pos[d][e]
			if n > 0 && float64(n) >= cfg.Confidence*float64(cover[d]) {
				ms = append(ms, marker{event: e})
				last = d
			} else if cfg.Negatives && n == 0 {
				ms = append(ms, marker{event: e, negated: true})
			}
		}
		var cs []expr.Expr
		for _, p := range props {
			switch propTrue[d][p] {
			case cover[d]:
				cs = append(cs, expr.Pr(p))
			case 0:
				cs = append(cs, expr.Not(expr.Pr(p)))
			}
		}
		lines = append(lines, ms)
		conds = append(conds, cs)
	}
	if last < 1 {
		return nil // no consequent: nothing worth asserting
	}
	L := last + 1
	lines = lines[:L]
	conds = conds[:L]
	if anchor != "" {
		found := false
		for _, m := range lines[0] {
			if !m.negated && m.event == anchor {
				found = true
			}
		}
		if !found {
			return nil // anchor fell below confidence on its own line
		}
	}

	// Causality arrows: anchor → marker (e, d≥1) when the inverse
	// confidence clears the bar — every occurrence of e is explained by
	// an anchor window d ticks earlier, so the pair is uniquely
	// positioned rather than coincidentally aligned.
	arrowTo := map[int]map[string]bool{}
	if anchor != "" {
		anchorAtTick := map[[2]int]bool{}
		for _, w := range windows {
			anchorAtTick[[2]int{w.seg, w.tick}] = true
		}
		for d := 1; d < L; d++ {
			for _, m := range lines[d] {
				if m.negated {
					continue
				}
				total, explained := 0, 0
				for si, seg := range segs {
					for t, st := range seg {
						if st.Events[m.event] {
							total++
							if t-d >= 0 && anchorAtTick[[2]int{si, t - d}] {
								explained++
							}
						}
					}
				}
				if total > 0 && float64(explained) >= cfg.Confidence*float64(total) {
					if arrowTo[d] == nil {
						arrowTo[d] = map[string]bool{}
					}
					arrowTo[d][m.event] = true
				}
			}
		}
	}

	// Assemble the scenario SCESC.
	name := cfg.ChartName
	if anchor != "" {
		name = cfg.ChartName + "_" + sanitizeIdent(strings.ToLower(anchor))
	}
	sc := &chart.SCESC{ChartName: name, Clock: cfg.Clock}
	anchorLabel := ""
	var arrows []chart.Arrow
	for d := 0; d < L; d++ {
		var gl chart.GridLine
		for _, m := range lines[d] {
			es := chart.EventSpec{Event: m.event, Negated: m.negated}
			if !m.negated {
				if d == 0 && m.event == anchor {
					anchorLabel = labelFor(d, m.event)
					es.Label = anchorLabel
				} else if arrowTo[d][m.event] {
					es.Label = labelFor(d, m.event)
					arrows = append(arrows, chart.Arrow{From: anchorLabel, To: es.Label})
				}
			}
			gl.Events = append(gl.Events, es)
		}
		if cs := conds[d]; len(cs) > 0 {
			gl.Cond = expr.And(cs...)
		}
		sc.Lines = append(sc.Lines, gl)
	}
	if anchorLabel != "" {
		sc.Arrows = arrows
	}
	if err := sc.Validate(); err != nil {
		// Arrow labels can collide with marker defaults on adversarial
		// corpora; retry without arrows before giving up.
		sc = stripArrows(sc)
		if err := sc.Validate(); err != nil {
			return nil
		}
	}

	imp := buildAssert(sc)
	if err := imp.Validate(); err != nil {
		return nil
	}
	return &Mined{
		Name:     name,
		Anchor:   anchor,
		Support:  len(windows),
		Scenario: sc,
		Assert:   imp,
		windows:  windows,
	}
}

// buildAssert derives the implication view from a scenario SCESC: line 0
// becomes the trigger, the remaining lines the consequent (MaxDelay 0).
// Arrows cannot span the trigger/consequent split, so only arrows whose
// endpoints both sit in the consequent survive (none, for anchor-rooted
// arrows); labels are kept.
func buildAssert(sc *chart.SCESC) *chart.Implies {
	trig := &chart.SCESC{
		ChartName: sc.ChartName + "_trig",
		Clock:     sc.Clock,
		Instances: append([]string(nil), sc.Instances...),
		Lines:     cloneLines(sc.Lines[:1]),
	}
	cons := &chart.SCESC{
		ChartName: sc.ChartName + "_cons",
		Clock:     sc.Clock,
		Instances: append([]string(nil), sc.Instances...),
		Lines:     cloneLines(sc.Lines[1:]),
	}
	return &chart.Implies{
		ChartName:  sc.ChartName + "_assert",
		Trigger:    trig,
		Consequent: cons,
	}
}

func cloneLines(lines []chart.GridLine) []chart.GridLine {
	out := make([]chart.GridLine, len(lines))
	for i, l := range lines {
		out[i].Events = append([]chart.EventSpec(nil), l.Events...)
		out[i].Cond = l.Cond
	}
	return out
}

// stripArrows returns a copy of sc without arrows or labels.
func stripArrows(sc *chart.SCESC) *chart.SCESC {
	out := &chart.SCESC{
		ChartName: sc.ChartName,
		Clock:     sc.Clock,
		Instances: append([]string(nil), sc.Instances...),
		Lines:     cloneLines(sc.Lines),
	}
	for i := range out.Lines {
		for j := range out.Lines[i].Events {
			out.Lines[i].Events[j].Label = ""
		}
	}
	return out
}

// patternKey canonicalizes a scenario chart for deduplication: two
// anchors rising on the same tick mine the same marker content and
// differ only in name, labels and arrows, so the key strips all three.
func patternKey(sc *chart.SCESC) string {
	k := stripArrows(sc)
	k.ChartName = "k"
	return parser.Print("k", k)
}

// labelFor names a marker label deterministically from its offset and
// event. The "m<d>_" prefix keeps labels distinct from event symbols in
// well-behaved corpora; collisions on adversarial corpora are caught by
// Validate and resolved by dropping arrows.
func labelFor(d int, ev string) string {
	return fmt.Sprintf("m%d_%s", d, sanitizeIdent(strings.ToLower(ev)))
}

// sanitizeIdent maps an arbitrary symbol to a CESC identifier.
func sanitizeIdent(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('x')
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}

// segmentSymbols lists the event and prop names in the segment set that
// Mine can put in a chart (see mineable).
func segmentSymbols(segs []trace.Trace) (events, props []string) {
	c := Corpus{Segments: segs}
	evs, prs := c.Symbols()
	for _, e := range evs {
		if mineable(e, false) {
			events = append(events, e)
		}
	}
	for _, p := range prs {
		if mineable(p, true) {
			props = append(props, p)
		}
	}
	return events, props
}

// mineable reports whether a corpus symbol can appear in a mined chart:
// it must lex as one CESC identifier, and a prop must not read as the
// literal true or false inside a guard. Mine skips every other symbol
// (see Corpus.SkippedSymbols).
func mineable(name string, prop bool) bool {
	if name == "" || (prop && (name == "true" || name == "false")) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		letter := c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// checkRoundTrip asserts the mined charts survive print → parse →
// print byte-identically — the guarantee FuzzMine leans on.
func checkRoundTrip(m *Mined) error {
	src := m.Source()
	f, err := parser.Parse(src)
	if err != nil {
		return fmt.Errorf("mined chart %s does not re-parse: %w\n%s", m.Name, err, src)
	}
	if len(f.Charts) != 2 {
		return fmt.Errorf("mined chart %s: expected 2 charts in source, got %d", m.Name, len(f.Charts))
	}
	again := parser.Print(f.Charts[0].Name, f.Charts[0].Chart) + parser.Print(f.Charts[1].Name, f.Charts[1].Chart)
	if again != src {
		return fmt.Errorf("mined chart %s does not round-trip the printer", m.Name)
	}
	return nil
}
