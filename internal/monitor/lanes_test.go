package monitor

import (
	"testing"

	"repro/internal/event"
	"repro/internal/expr"
)

// laneRig pairs a LaneBank with per-lane Compiled references sharing the
// same Table, the ground truth the bank must match tick for tick.
type laneRig struct {
	t    *testing.T
	tab  *Table
	bank *LaneBank
	ref  map[int]*Compiled // by lane
}

func newLaneRig(t *testing.T, m *Monitor) *laneRig {
	t.Helper()
	tab, err := CompileTable(m)
	if err != nil {
		t.Fatal(err)
	}
	return &laneRig{t: t, tab: tab, bank: NewLaneBank(tab), ref: map[int]*Compiled{}}
}

func (r *laneRig) join() int {
	r.t.Helper()
	lane, ok := r.bank.Join()
	if !ok {
		r.t.Fatal("bank full")
	}
	r.ref[lane] = r.tab.NewInstance()
	return lane
}

// stepAll feeds vals[lane] to the bank and the same expanded state to
// each reference, then checks verdict masks and full cursor parity.
func (r *laneRig) stepAll(tick int, vals *[MaxLanes]uint64) {
	r.t.Helper()
	prevViol := map[int]int{}
	for l, c := range r.ref {
		prevViol[l] = c.Violations()
	}
	acceptMask, violMask := r.bank.StepAll(vals)
	for l, c := range r.ref {
		accepted := c.Step(r.tab.Support().State(event.Valuation(vals[l])))
		if got := acceptMask>>uint(l)&1 == 1; got != accepted {
			r.t.Fatalf("tick %d lane %d: accept %v, reference %v", tick, l, got, accepted)
		}
		if got := violMask>>uint(l)&1 == 1; got != (c.Violations() > prevViol[l]) {
			r.t.Fatalf("tick %d lane %d: violation bit %v, reference %v", tick, l, got, c.Violations() > prevViol[l])
		}
	}
	r.verify(tick)
}

func (r *laneRig) verify(tick int) {
	r.t.Helper()
	for l, c := range r.ref {
		if s := r.bank.State(l); s != c.State() {
			r.t.Fatalf("tick %d lane %d: state %d, reference %d", tick, l, s, c.State())
		}
		if a := r.bank.Accepts(l); a != c.Accepts() {
			r.t.Fatalf("tick %d lane %d: accepts %d, reference %d", tick, l, a, c.Accepts())
		}
		if v := r.bank.Violations(l); v != c.Violations() {
			r.t.Fatalf("tick %d lane %d: violations %d, reference %d", tick, l, v, c.Violations())
		}
		if st := r.bank.Steps(l); st != c.Steps() {
			r.t.Fatalf("tick %d lane %d: steps %d, reference %d", tick, l, st, c.Steps())
		}
		for _, e := range r.tab.ChkEvents() {
			if n := r.bank.Count(l, e); n != c.Count(e) {
				r.t.Fatalf("tick %d lane %d: count[%s] %d, reference %d", tick, l, e, n, c.Count(e))
			}
		}
	}
}

// xorshift is the deterministic traffic source for the differential
// runs.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func laneMonitors() map[string]*Monitor {
	return map[string]*Monitor{
		"twoStep": twoStep(),
		"prov":    provMonitor(),
	}
}

func TestLaneBankUniformMatchesCompiled(t *testing.T) {
	for name, m := range laneMonitors() {
		t.Run(name, func(t *testing.T) {
			r := newLaneRig(t, m)
			for i := 0; i < MaxLanes; i++ {
				r.join()
			}
			mask := uint64(1)<<uint(r.tab.Width()) - 1
			rng := xorshift(7)
			var vals [MaxLanes]uint64
			for tick := 0; tick < 2048; tick++ {
				v := rng.next() & mask
				// Uniform traffic through both entry points: they must agree.
				if tick%2 == 0 {
					for l := range vals {
						vals[l] = v
					}
					r.stepAll(tick, &vals)
				} else {
					acceptMask, _ := r.bank.StepUniform(v)
					s := r.tab.Support().State(event.Valuation(v))
					for l, c := range r.ref {
						accepted := c.Step(s)
						if got := acceptMask>>uint(l)&1 == 1; got != accepted {
							t.Fatalf("tick %d lane %d: accept %v, reference %v", tick, l, got, accepted)
						}
					}
					r.verify(tick)
				}
			}
		})
	}
}

func TestLaneBankPerLaneTraffic(t *testing.T) {
	for name, m := range laneMonitors() {
		t.Run(name, func(t *testing.T) {
			r := newLaneRig(t, m)
			for i := 0; i < MaxLanes; i++ {
				r.join()
			}
			mask := uint64(1)<<uint(r.tab.Width()) - 1
			rng := xorshift(11)
			var vals [MaxLanes]uint64
			for tick := 0; tick < 2048; tick++ {
				for l := range vals {
					vals[l] = rng.next() & mask
				}
				r.stepAll(tick, &vals)
			}
		})
	}
}

// TestLaneBankChurn joins, evicts, and rejoins lanes mid-stream: a lane
// joined at tick k must behave exactly like a fresh instance fed the
// suffix, and a reused lane slot must carry nothing over.
func TestLaneBankChurn(t *testing.T) {
	m := provMonitor()
	r := newLaneRig(t, m)
	mask := uint64(1)<<uint(r.tab.Width()) - 1
	rng := xorshift(23)
	var vals [MaxLanes]uint64
	for tick := 0; tick < 3000; tick++ {
		if tick%7 == 0 && r.bank.Len() < MaxLanes {
			r.join()
		}
		if tick%131 == 130 {
			// Evict the lowest live lane; its slot gets recycled above.
			for l := 0; l < MaxLanes; l++ {
				if r.bank.Occupied()&(1<<uint(l)) != 0 {
					r.bank.Evict(l)
					delete(r.ref, l)
					break
				}
			}
		}
		for l := range vals {
			vals[l] = rng.next() & mask
		}
		r.stepAll(tick, &vals)
	}
	if r.bank.Spilled() != 0 {
		t.Fatal("unexpected spill")
	}
}

func TestLaneBankSnapshotRoundTrip(t *testing.T) {
	m := provMonitor()
	r := newLaneRig(t, m)
	for i := 0; i < MaxLanes; i++ {
		r.join()
	}
	mask := uint64(1)<<uint(r.tab.Width()) - 1
	rng := xorshift(31)
	var vals [MaxLanes]uint64
	for tick := 0; tick < 500; tick++ {
		for l := range vals {
			vals[l] = rng.next() & mask
		}
		r.stepAll(tick, &vals)
	}
	// Move every lane into a fresh bank through its snapshot; the
	// references carry over untouched, so any loss shows as divergence.
	moved := &laneRig{t: t, tab: r.tab, bank: NewLaneBank(r.tab), ref: map[int]*Compiled{}}
	for l, c := range r.ref {
		snap, err := r.bank.Snapshot(l)
		if err != nil {
			t.Fatal(err)
		}
		nl, ok := moved.bank.JoinWith(snap)
		if !ok {
			t.Fatal("join with snapshot failed")
		}
		moved.ref[nl] = c
		got, err := moved.bank.Snapshot(nl)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != snap.State || got.Accepts != snap.Accepts ||
			got.Violations != snap.Violations || got.Steps != snap.Steps {
			t.Fatalf("snapshot not preserved: %+v vs %+v", got, snap)
		}
	}
	for tick := 500; tick < 1000; tick++ {
		for l := range vals {
			vals[l] = rng.next() & mask
		}
		moved.stepAll(tick, &vals)
	}
}

func TestLaneBankRestoreValidation(t *testing.T) {
	r := newLaneRig(t, provMonitor())
	if err := r.bank.Restore(3, LaneState{}); err == nil {
		t.Error("restore of dead lane accepted")
	}
	if _, ok := r.bank.JoinWith(LaneState{State: 99}); ok {
		t.Error("out-of-range state accepted")
	}
	if _, ok := r.bank.JoinWith(LaneState{Counts: []uint32{1 << 20}}); ok {
		t.Error("count above lane ceiling accepted")
	}
	for i := 0; i < MaxLanes; i++ {
		r.join()
	}
	if _, ok := r.bank.Join(); ok {
		t.Error("join succeeded on a full bank")
	}
}

// TestLaneBankSpill drives one scoreboard count to the 16-bit lane
// ceiling: the lane must be flagged for eviction rather than wrapping.
func TestLaneBankSpill(t *testing.T) {
	m := New("spill", "clk", 2)
	m.AddTransition(0, Transition{To: 0, Guard: expr.True, Actions: []Action{Add("e")}})
	m.AddTransition(1, Transition{To: 0, Guard: expr.Chk("e")}) // makes e guard-tested
	m.AddTransition(1, Transition{To: 0, Guard: expr.True})
	tab, err := CompileTable(m)
	if err != nil {
		t.Fatal(err)
	}
	b := NewLaneBank(tab)
	lane, _ := b.Join()
	for i := 0; i < (1<<laneCountBits)-1; i++ {
		b.StepUniform(0)
	}
	if b.Spilled() != 0 {
		t.Fatalf("spilled early: %x", b.Spilled())
	}
	if n := b.Count(lane, "e"); n != (1<<laneCountBits)-1 {
		t.Fatalf("count = %d", n)
	}
	b.StepUniform(0)
	if b.Spilled() != 1<<uint(lane) {
		t.Fatalf("spill not flagged: %x", b.Spilled())
	}
	if n := b.Count(lane, "e"); n != (1<<laneCountBits)-1 {
		t.Fatalf("count wrapped: %d", n)
	}
}
