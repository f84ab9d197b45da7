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

// Spec is one loaded chart: the synthesized monitor plus compile-time
// facts reported by GET /specs. Multi-clock (async) charts are loaded
// and listed but cannot back sessions yet; they are the next ingest
// backend on the roadmap.
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

// registry holds the loaded specs; hot-loading via POST /specs appends
// under the lock, sessions resolve names at creation time.
type registry struct {
	mu    sync.RWMutex
	specs map[string]*Spec
}

func newRegistry() *registry {
	return &registry{specs: make(map[string]*Spec)}
}

// compileChart synthesizes one chart into a Spec. A panic anywhere in
// synthesis is converted to an error so a malformed hot-load can never
// take the daemon (or the serving registry) down with it.
func compileChart(name string, c chart.Chart) (sp *Spec, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: chart %q: synthesis panic: %v", name, r)
		}
	}()
	sp = &Spec{Name: name, Source: parser.Print(name, c)}
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

// compileSource parses and synthesizes .cesc source without touching any
// registry — the shared compile path of hot-loading and WAL recovery.
func compileSource(src string) ([]*Spec, error) {
	f, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	specs := make([]*Spec, 0, len(f.Charts))
	for _, n := range f.Charts {
		sp, err := compileChart(n.Name, n.Chart)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// compileSingleSpec rebuilds one journaled spec from its printed source
// (the WAL recovery path).
func compileSingleSpec(name, src string) (*Spec, error) {
	specs, err := compileSource(src)
	if err != nil {
		return nil, err
	}
	if len(specs) != 1 || specs[0].Name != name {
		return nil, fmt.Errorf("server: journaled source for %q compiled to %d spec(s)", name, len(specs))
	}
	return specs[0], nil
}

// LoadSource parses .cesc source text, synthesizes a monitor per chart,
// and registers the results — swap-on-success: the registry is only
// touched after the entire batch has compiled, so a malformed POST
// leaves every previously loaded version serving. Name collisions are
// rejected unless replace is set. Returns the registered spec names.
func (r *registry) LoadSource(src string, replace bool) ([]string, error) {
	specs, err := compileSource(src)
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
		r.specs[sp.Name] = sp
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

// List returns all specs sorted by name.
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
