package conformance

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/chart"
	"repro/internal/gen"
	"repro/internal/mclock"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/trace"
)

// A regression is three sibling files under the regression directory:
//
//	<name>.cesc        the shrunk chart, canonical source
//	<name>.trace       the offending trace, NDJSON (StateJSON per line;
//	                   async regressions add domain/time per line)
//	<name>.meta.json   provenance: kind, detail, campaign seed and index
//
// The .trace format is exactly the daemon's ingest wire format, so a
// single-clock regression can be replayed against a live server with
// curl alone.

type regressionMeta struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	Seed   int64  `json:"seed"`
	Index  int    `json:"index"`
	Async  bool   `json:"async,omitempty"`
}

type globalTickJSON struct {
	Domain string           `json:"domain"`
	Time   int64            `json:"time"`
	State  server.StateJSON `json:"state"`
}

// writeRegression persists d as a replayable pair, picking a fresh name
// when the natural one is taken, and records the basename in d.File.
func writeRegression(dir string, d *Divergence) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-s%d-c%d", sanitize(d.Kind), d.Seed, d.Index)
	name := base
	for n := 2; ; n++ {
		if _, err := os.Stat(filepath.Join(dir, name+".cesc")); os.IsNotExist(err) {
			break
		}
		name = fmt.Sprintf("%s-%d", base, n)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".cesc"), []byte(d.Source), 0o644); err != nil {
		return err
	}
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	if d.GlobalTrace != nil {
		for _, t := range d.GlobalTrace {
			if err := enc.Encode(globalTickJSON{Domain: t.Domain, Time: t.Time, State: server.EncodeState(t.State)}); err != nil {
				return err
			}
		}
	} else {
		for _, s := range d.Trace {
			if err := enc.Encode(server.EncodeState(s)); err != nil {
				return err
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, name+".trace"), []byte(buf.String()), 0o644); err != nil {
		return err
	}
	meta, err := json.MarshalIndent(regressionMeta{
		Kind: d.Kind, Detail: d.Detail, Seed: d.Seed, Index: d.Index,
		Async: d.GlobalTrace != nil,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".meta.json"), append(meta, '\n'), 0o644); err != nil {
		return err
	}
	d.File = name
	return nil
}

// ReplayDir re-runs the full differential check over every regression
// pair in dir and returns the divergences that still reproduce. A fixed
// codebase returns none; a regressed one names the broken pair. A
// missing directory is an empty corpus, not an error.
func ReplayDir(dir string) ([]*Divergence, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".cesc") {
			names = append(names, strings.TrimSuffix(e.Name(), ".cesc"))
		}
	}
	sort.Strings(names)
	var out []*Divergence
	for _, name := range names {
		d, err := ReplayFile(filepath.Join(dir, name+".cesc"))
		if err != nil {
			return out, fmt.Errorf("regression %s: %w", name, err)
		}
		if d != nil {
			d.File = name
			out = append(out, d)
		}
	}
	return out, nil
}

// ReplayFile replays one regression (given its .cesc path, with the
// .trace sibling alongside) and returns the divergence if it still
// reproduces, nil when the stack now agrees.
func ReplayFile(cescPath string) (*Divergence, error) {
	src, err := os.ReadFile(cescPath)
	if err != nil {
		return nil, err
	}
	c, err := parser.ParseChart(string(src))
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", cescPath, err)
	}
	tracePath := strings.TrimSuffix(cescPath, ".cesc") + ".trace"
	f, err := os.Open(tracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	if a, ok := c.(*chart.Async); ok {
		gt, err := readGlobalTrace(f)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", tracePath, err)
		}
		spec := asyncSpecOf(a)
		mm, err := mclock.Synthesize(a, nil)
		if err != nil {
			return &Divergence{Kind: "mclock-synth-error", Detail: err.Error(), Source: string(src)}, nil
		}
		return asyncCompare(spec, mm, gt), nil
	}

	tr, err := readTrace(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", tracePath, err)
	}
	d, _ := checkChart(c, tr)
	return d, nil
}

func readTrace(f *os.File) (trace.Trace, error) {
	var tr trace.Trace
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var sj server.StateJSON
		if err := json.Unmarshal([]byte(line), &sj); err != nil {
			return nil, err
		}
		tr = append(tr, sj.ToState())
	}
	return tr, sc.Err()
}

func readGlobalTrace(f *os.File) (trace.GlobalTrace, error) {
	var gt trace.GlobalTrace
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var tj globalTickJSON
		if err := json.Unmarshal([]byte(line), &tj); err != nil {
			return nil, err
		}
		gt = append(gt, trace.GlobalTick{Domain: tj.Domain, Time: tj.Time, State: tj.State.ToState()})
	}
	return gt, sc.Err()
}

// asyncSpecOf rebuilds the campaign bookkeeping for a parsed async
// chart (each child owns exactly one clock domain, by validation).
func asyncSpecOf(a *chart.Async) gen.AsyncSpec {
	spec := gen.AsyncSpec{Chart: a}
	for _, ch := range a.Children {
		cks := ch.Clocks()
		d := ""
		if len(cks) > 0 {
			d = cks[0]
		}
		spec.Domains = append(spec.Domains, d)
	}
	return spec
}

// sanitize maps a divergence kind to a filesystem-safe slug.
func sanitize(kind string) string {
	var b strings.Builder
	for _, r := range kind {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	return b.String()
}
