package event

import (
	"testing"
	"testing/quick"
)

func TestVocabularyDeclare(t *testing.T) {
	v := NewVocabulary()
	i, err := v.Declare("req", KindEvent)
	if err != nil || i != 0 {
		t.Fatalf("declare = %d, %v", i, err)
	}
	j, err := v.Declare("req", KindEvent)
	if err != nil || j != 0 {
		t.Errorf("idempotent redeclare = %d, %v", j, err)
	}
	// Events and props are separate namespaces: the same name as a prop
	// is a second symbol with its own slot.
	k, err := v.Declare("req", KindProp)
	if err != nil || k != 1 {
		t.Errorf("req as prop = %d, %v; want slot 1", k, err)
	}
	if _, err := v.Declare("", KindEvent); err == nil {
		t.Error("empty name not rejected")
	}
	v.MustDeclare("ready", KindProp)
	if v.Len() != 3 {
		t.Errorf("len = %d", v.Len())
	}
	if v.Lookup("ready", KindProp) != 2 || v.Lookup("ready", KindEvent) != -1 || v.Lookup("nope", KindEvent) != -1 {
		t.Error("lookup misbehaves")
	}
	if v.Lookup("req", KindEvent) != 0 || v.Lookup("req", KindProp) != 1 {
		t.Error("lookup mixes the event and prop namespaces")
	}
	if v.Symbol(1).Kind != KindProp || v.Symbol(2).Kind != KindProp {
		t.Error("symbol kind lost")
	}
	names := v.Names()
	if len(names) != 3 || names[0] != "req" || names[1] != "req" {
		t.Errorf("names = %v", names)
	}
}

func TestMustDeclarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustDeclare did not panic on an empty name")
		}
	}()
	v := NewVocabulary()
	v.MustDeclare("x", KindEvent)
	v.MustDeclare("x", KindProp)
	v.MustDeclare("", KindEvent)
}

func TestKindString(t *testing.T) {
	if KindEvent.String() != "event" || KindProp.String() != "prop" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind empty")
	}
	s := Symbol{Name: "req", Kind: KindEvent}
	if s.String() != "req:event" {
		t.Errorf("symbol string = %q", s.String())
	}
}

func TestStateOperations(t *testing.T) {
	s := NewState().WithEvents("a", "b").WithProps("p").WithProp("q", false)
	if !s.Event("a") || !s.Event("b") || s.Event("c") {
		t.Error("event valuation wrong")
	}
	if !s.Prop("p") || s.Prop("q") || s.Prop("r") {
		t.Error("prop valuation wrong")
	}
	if s.IsEmpty() {
		t.Error("non-empty state reported empty")
	}
	if !NewState().IsEmpty() {
		t.Error("empty state not empty")
	}
	// q:false is equivalent to q absent.
	other := NewState().WithEvents("a", "b").WithProps("p")
	if !s.Equal(other) {
		t.Error("false entry breaks equality with absent entry")
	}
	c := s.Clone()
	c.Events["a"] = false
	if !s.Event("a") {
		t.Error("clone aliases original")
	}
}

func TestStateString(t *testing.T) {
	s := NewState().WithEvents("b", "a").WithProps("p1")
	if got := s.String(); got != "{a, b | p1}" {
		t.Errorf("string = %q", got)
	}
	if got := NewState().String(); got != "{}" {
		t.Errorf("empty = %q", got)
	}
	if got := NewState().WithProps("p").String(); got != "{| p}" {
		t.Errorf("props-only = %q", got)
	}
}

func TestSupportConstruction(t *testing.T) {
	sp, err := NewSupport([]Symbol{
		{Name: "b", Kind: KindEvent},
		{Name: "a", Kind: KindProp},
		{Name: "b", Kind: KindEvent}, // dup
	})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Len() != 2 {
		t.Fatalf("len = %d", sp.Len())
	}
	// Sorted by name.
	if sp.Symbols()[0].Name != "a" || sp.Index("b") != 1 {
		t.Error("ordering wrong")
	}
	if sp.Index("zz") != -1 {
		t.Error("missing index not -1")
	}
	if sp.NumValuations() != 4 {
		t.Errorf("valuations = %d", sp.NumValuations())
	}
	if _, err := NewSupport([]Symbol{{Name: "x", Kind: KindEvent}, {Name: "x", Kind: KindProp}}); err == nil {
		t.Error("kind conflict not rejected")
	}
}

func TestSupportTooLarge(t *testing.T) {
	syms := make([]Symbol, MaxSupportBits+1)
	for i := range syms {
		syms[i] = Symbol{Name: string(rune('a'+i/26)) + string(rune('a'+i%26)), Kind: KindEvent}
	}
	if _, err := NewSupport(syms); err == nil {
		t.Error("oversized support accepted")
	}
}

func TestValuationBits(t *testing.T) {
	var v Valuation
	v = v.SetBit(3, true)
	if !v.Bit(3) || v.Bit(2) {
		t.Error("bit ops wrong")
	}
	v = v.SetBit(3, false)
	if v != 0 {
		t.Error("clear failed")
	}
}

// TestValuationStateRoundTrip: projecting the expansion of any valuation
// returns the valuation (property-based).
func TestValuationStateRoundTrip(t *testing.T) {
	sp, err := NewSupport([]Symbol{
		{Name: "e1", Kind: KindEvent},
		{Name: "e2", Kind: KindEvent},
		{Name: "p1", Kind: KindProp},
		{Name: "p2", Kind: KindProp},
		{Name: "p3", Kind: KindProp},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint8) bool {
		v := Valuation(raw) & Valuation(sp.NumValuations()-1)
		return sp.Valuation(sp.State(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSupportUnion(t *testing.T) {
	a, _ := NewSupport([]Symbol{{Name: "x", Kind: KindEvent}})
	b, _ := NewSupport([]Symbol{{Name: "y", Kind: KindProp}, {Name: "x", Kind: KindEvent}})
	u, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 2 {
		t.Errorf("union len = %d", u.Len())
	}
	c, _ := NewSupport([]Symbol{{Name: "x", Kind: KindProp}})
	if _, err := a.Union(c); err == nil {
		t.Error("union kind conflict not rejected")
	}
}

func TestValuationContext(t *testing.T) {
	sp, _ := NewSupport([]Symbol{
		{Name: "e", Kind: KindEvent},
		{Name: "p", Kind: KindProp},
	})
	ctx := ValuationContext{Sup: sp, Val: Valuation(0).SetBit(sp.Index("e"), true)}
	if !ctx.Event("e") || ctx.Prop("p") || ctx.Event("absent") {
		t.Error("context valuation wrong")
	}
	if ctx.ChkEvt("e") {
		t.Error("ChkEvt must be false in a pure valuation")
	}
}
