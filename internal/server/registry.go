package server

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/chart"
	"repro/internal/monitor"
	"repro/internal/parser"
	"repro/internal/synth"
)

// Spec is one compiled chart: the synthesized monitor plus compile-time
// facts reported by GET /specs. Multi-clock (async) charts are loaded
// and listed but cannot back sessions; a session streams one clock
// domain.
type Spec struct {
	Name        string `json:"name"`
	Source      string `json:"-"`
	MultiClock  bool   `json:"multi_clock"`
	Clock       string `json:"clock,omitempty"`
	States      int    `json:"states,omitempty"`
	Transitions int    `json:"transitions,omitempty"`
	// TableBytes is the footprint of the spec's shared transition table,
	// 0 when the combined support exceeds the table compile limit or the
	// spec has no compiled form (its sessions then never use a table).
	TableBytes int `json:"table_bytes,omitempty"`
	// ProgramOps is the compiled guard-program instruction count; 0 when
	// the program compiler rejected the monitor (sessions then fall back
	// to the interpreted engine).
	ProgramOps int `json:"program_ops,omitempty"`

	mon *monitor.Monitor
	// compiled is the immutable shared fast-path artifact (monitor +
	// guard programs + interned support); nil when program compilation
	// failed. Sessions bind engines to it, never mutate it.
	compiled *synth.CompiledSpec
}

// registry is the one place a chart is compiled. specs holds the loaded
// specs: what GET /specs lists and POST /sessions resolves; hot-loading
// via POST /specs swaps entries under the lock. bySource maps printed
// source (which names the chart) to its spec, so a source is synthesized
// once however many times it is loaded or journaled: every session of
// it, live or rebuilt from a journal, shares one artifact. It holds the
// loaded specs' sources and the sources journaled sessions resolved; a
// journaled source that no longer matches the loaded one (its name was
// replaced) keeps an artifact of its own there, never listed. A replace
// drops the replaced source, and a refused load stores nothing.
type registry struct {
	mu       sync.RWMutex
	specs    map[string]*Spec
	bySource map[string]*Spec
}

func newRegistry() *registry {
	return &registry{specs: make(map[string]*Spec), bySource: make(map[string]*Spec)}
}

// compileChart returns the spec of one chart: the cached artifact of its
// printed source, or a fresh synthesis that the caller caches with
// keepLocked once it accepts it. A panic anywhere in synthesis is
// converted to an error so a malformed hot-load can never take the
// daemon (or the serving registry) down with it.
func (r *registry) compileChart(name string, c chart.Chart) (*Spec, error) {
	src := parser.Print(name, c)
	r.mu.RLock()
	sp := r.bySource[src]
	r.mu.RUnlock()
	if sp != nil {
		return sp, nil
	}
	return synthesizeChart(name, src, c)
}

// keepLocked caches sp under its source and returns it, or returns the
// artifact a racing compile of the same source cached first, so every
// caller gets one artifact. r.mu must be held for writing.
func (r *registry) keepLocked(sp *Spec) *Spec {
	if prev, ok := r.bySource[sp.Source]; ok {
		return prev
	}
	r.bySource[sp.Source] = sp
	return sp
}

// synthesizeChart builds the monitor, guard programs and shared table of
// one chart whose printed source is src.
func synthesizeChart(name, src string, c chart.Chart) (sp *Spec, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: chart %q: synthesis panic: %v", name, r)
		}
	}()
	sp = &Spec{Name: name, Source: src}
	if _, ok := c.(*chart.Async); ok {
		sp.MultiClock = true
		return sp, nil
	}
	m, err := synth.Synthesize(c, nil)
	if err != nil {
		return nil, fmt.Errorf("server: chart %q: %w", name, err)
	}
	sp.mon = m
	sp.Clock = m.Clock
	sp.States = m.States
	sp.Transitions = m.NumTransitions()
	// Compile the shared guard programs (the width-unlimited fast path
	// sessions actually execute); failure degrades to interpretation. The
	// shared table is built here once and cached for the spec's
	// table-eligible sessions; monitors too wide for it keep the programs.
	if cs, err := synth.NewCompiledSpec(m); err == nil {
		sp.compiled = cs
		sp.ProgramOps = cs.Program.Ops()
		if tab, err := cs.Table(); err == nil {
			sp.TableBytes = tab.TableBytes()
		}
	}
	return sp, nil
}

// compileSource parses .cesc source and compiles each of its charts.
func (r *registry) compileSource(src string) ([]*Spec, error) {
	f, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	specs := make([]*Spec, 0, len(f.Charts))
	for _, n := range f.Charts {
		sp, err := r.compileChart(n.Name, n.Chart)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// resolve returns the spec of one journaled chart, compiling its source
// only if no session or load has compiled it before; a cached source
// skips the parse too. It leaves the loaded specs alone: a journal never
// changes what GET /specs lists.
func (r *registry) resolve(name, src string) (*Spec, error) {
	r.mu.RLock()
	sp := r.bySource[src]
	r.mu.RUnlock()
	if sp == nil {
		specs, err := r.compileSource(src)
		if err != nil {
			return nil, err
		}
		if len(specs) != 1 {
			return nil, fmt.Errorf("server: journaled source for %q compiled to %d specs", name, len(specs))
		}
		r.mu.Lock()
		sp = r.keepLocked(specs[0])
		r.mu.Unlock()
	}
	if sp.Name != name {
		return nil, fmt.Errorf("server: journaled source for %q names chart %q", name, sp.Name)
	}
	return sp, nil
}

// LoadSource parses .cesc source text, compiles each chart, and
// registers the results — swap-on-success: the loaded specs are only
// touched after the entire batch has compiled, so a malformed POST
// leaves every previously loaded version serving. Name collisions are
// rejected unless replace is set. Returns the registered spec names.
func (r *registry) LoadSource(src string, replace bool) ([]string, error) {
	specs, err := r.compileSource(src)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !replace {
		for _, sp := range specs {
			if _, ok := r.specs[sp.Name]; ok {
				return nil, fmt.Errorf("server: spec %q already loaded", sp.Name)
			}
		}
	}
	names := make([]string, 0, len(specs))
	for _, sp := range specs {
		if old, ok := r.specs[sp.Name]; ok && old.Source != sp.Source {
			// Sessions of the replaced source keep their artifact; one
			// rebuilt from its journal later compiles the source again.
			delete(r.bySource, old.Source)
		}
		r.specs[sp.Name] = r.keepLocked(sp)
		names = append(names, sp.Name)
	}
	return names, nil
}

// Get returns the spec registered under name.
func (r *registry) Get(name string) (*Spec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sp, ok := r.specs[name]
	return sp, ok
}

// List returns all loaded specs sorted by name.
func (r *registry) List() []*Spec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Spec, 0, len(r.specs))
	for _, sp := range r.specs {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len reports the number of loaded specs.
func (r *registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.specs)
}
