package event

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refTick mirrors server.StateJSON for the reference decode path.
type refTick struct {
	Events []string        `json:"events,omitempty"`
	Props  map[string]bool `json:"props,omitempty"`
}

func (t refTick) toState() State {
	s := NewState()
	for _, e := range t.Events {
		s.Events[e] = true
	}
	for p, v := range t.Props {
		s.Props[p] = v
	}
	return s
}

// refDecode is the slow path the decoder must match bit-for-bit:
// encoding/json into StateJSON-shaped structs, ToState, PackInto.
func refDecode(t *testing.T, v *Vocabulary, body string) []Packed {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(body))
	var out []Packed
	for dec.More() {
		var tick refTick
		if err := dec.Decode(&tick); err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		out = append(out, v.Pack(tick.toState()))
	}
	return out
}

func testVocab(t *testing.T) *Vocabulary {
	t.Helper()
	v := NewVocabulary()
	for _, e := range []string{"cmd", "resp", "data", `quo"te`, "esc\\ape", "unié"} {
		v.MustDeclare(e, KindEvent)
	}
	for _, p := range []string{"busy", "ready", "tab\tprop"} {
		v.MustDeclare(p, KindProp)
	}
	return v
}

func TestBatchDecoderMatchesJSONPath(t *testing.T) {
	v := testVocab(t)
	bodies := []string{
		`{"events":["cmd"],"props":{"busy":true}}`,
		`{"events":["cmd","resp","data"]}` + "\n" + `{"props":{"busy":true,"ready":false}}`,
		"  \t\n" + `{ "events" : [ "cmd" , "resp" ] , "props" : { "ready" : true } }` + "\r\n  ",
		`{}` + "\n" + `{"events":[],"props":{}}` + "\n" + `{"events":null,"props":null}`,
		// Field order reversed, unknown symbols dropped, names declared
		// only under the other kind dropped (cmd as prop, busy as event).
		`{"props":{"cmd":true,"busy":true,"nosuch":true},"events":["busy","nosuch","resp"]}`,
		// Escapes resolving to declared symbols.
		`{"events":["quo\"te","esc\\ape","unié"],"props":{"tab\tprop":true}}`,
		`{"events":["cmd"]}`,
		// False props and empty ticks interleaved.
		`{"props":{"busy":false}}` + `{"events":["data"]}`,
	}
	for i, body := range bodies {
		want := refDecode(t, v, body)
		d := NewBatchDecoder(v)
		var got PackedBatch
		n, err := d.Decode([]byte(body), &got, 0)
		if err != nil {
			t.Fatalf("body %d: decode: %v", i, err)
		}
		if n != len(want) {
			t.Fatalf("body %d: decoded %d ticks, want %d", i, n, len(want))
		}
		for j := range want {
			if !got.Tick(j).Equal(want[j]) {
				t.Errorf("body %d tick %d: packed %x, want %x", i, j, got.Tick(j), want[j])
			}
		}
	}
}

// TestVocabularyKindNamespaces declares busy as an event and as a prop:
// the two get separate slots, and the strict decoder, PackInto over the
// map state, and PackedBatch.AppendState all pack each tick identically.
func TestVocabularyKindNamespaces(t *testing.T) {
	v := NewVocabulary()
	ev := v.MustDeclare("busy", KindEvent)
	v.MustDeclare("go", KindEvent)
	pr := v.MustDeclare("busy", KindProp)
	if ev == pr || v.Len() != 3 {
		t.Fatalf("busy event slot %d, prop slot %d, %d slots", ev, pr, v.Len())
	}
	body := `{"events":["busy"]}` + "\n" +
		`{"props":{"busy":true}}` + "\n" +
		`{"events":["busy","go"],"props":{"busy":true}}` + "\n" +
		`{"events":["go"],"props":{"busy":false}}` + "\n"
	wantBits := [][2]bool{{true, false}, {false, true}, {true, true}, {false, false}}
	want := refDecode(t, v, body)
	var got PackedBatch
	if n, err := NewBatchDecoder(v).Decode([]byte(body), &got, 0); err != nil || n != len(wantBits) {
		t.Fatalf("decode = %d ticks, %v", n, err)
	}
	var appended PackedBatch
	appended.Reset(v.Len())
	dec := json.NewDecoder(strings.NewReader(body))
	for dec.More() {
		var tick refTick
		if err := dec.Decode(&tick); err != nil {
			t.Fatal(err)
		}
		appended.AppendState(v, tick.toState())
	}
	for i, bits := range wantBits {
		if !got.Tick(i).Equal(want[i]) || !appended.Tick(i).Equal(want[i]) {
			t.Errorf("tick %d: decoder %x, AppendState %x, PackInto %x", i, got.Tick(i), appended.Tick(i), want[i])
		}
		if want[i].Bit(ev) != bits[0] || want[i].Bit(pr) != bits[1] {
			t.Errorf("tick %d: busy event %v prop %v, want %v", i, want[i].Bit(ev), want[i].Bit(pr), bits)
		}
	}
	if st := v.UnpackState(got.Tick(2)); !st.Event("busy") || !st.Prop("busy") {
		t.Errorf("unpacked tick 2 = %v, want busy as both event and prop", st)
	}
}

func TestBatchDecoderRandomizedEquivalence(t *testing.T) {
	v := testVocab(t)
	names := append([]string{}, v.Names()...)
	names = append(names, "unknown1", "unknown2")
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		var sb strings.Builder
		nticks := rng.Intn(8)
		for k := 0; k < nticks; k++ {
			tick := refTick{Props: map[string]bool{}}
			for _, n := range names {
				switch rng.Intn(5) {
				case 0:
					tick.Events = append(tick.Events, n)
				case 1:
					tick.Props[n] = rng.Intn(2) == 0
				}
			}
			data, err := json.Marshal(tick)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(data)
			sb.WriteByte('\n')
		}
		body := sb.String()
		want := refDecode(t, v, body)
		d := NewBatchDecoder(v)
		var got PackedBatch
		n, err := d.Decode([]byte(body), &got, 0)
		if err != nil {
			t.Fatalf("round %d: decode: %v\nbody: %s", round, err, body)
		}
		if n != len(want) {
			t.Fatalf("round %d: decoded %d ticks, want %d", round, n, len(want))
		}
		for j := range want {
			if !got.Tick(j).Equal(want[j]) {
				t.Errorf("round %d tick %d: packed %x, want %x", round, j, got.Tick(j), want[j])
			}
		}
	}
}

// TestBatchDecoderEncodingJSONForms covers every form encoding/json
// reads a tick in beyond the compact one, each body packed by the
// decoder exactly as by the reference path and as want names it.
func TestBatchDecoderEncodingJSONForms(t *testing.T) {
	v := testVocab(t)
	v.MustDeclare("a\uFFFD", KindEvent)
	cases := []struct {
		name, body string
		events     []string // every tick's events, then props
		props      []string
	}{
		{"duplicate prop true then false", `{"props":{"busy":true,"busy":false}}`, nil, nil},
		{"duplicate prop false then true", `{"props":{"busy":false,"busy":true}}`, nil, []string{"busy"}},
		{"prop null", `{"props":{"busy":true,"ready":true,"ready":null}}`, nil, []string{"busy"}},
		{"props merge", `{"props":{"busy":true},"props":{"ready":true}}`, nil, []string{"busy", "ready"}},
		{"props then props null", `{"props":{"busy":true},"props":null}`, nil, nil},
		{"events twice", `{"events":["cmd","resp"],"events":["data"]}`, []string{"data"}, nil},
		{"events then events null", `{"events":["cmd"],"events":null,"props":{"busy":true}}`, nil, []string{"busy"}},
		{"events then empty", `{"events":["a"],"events":[]}`, nil, nil},
		{"null keeps an earlier element", `{"events":["cmd","resp"],"events":[null,"data",null]}`, []string{"cmd", "data"}, nil},
		{"null after an empty list", `{"events":["cmd","resp"],"events":[],"events":[null,null]}`, nil, nil},
		{"shorter list keeps a later index", `{"events":["cmd","resp"],"events":["data"],"events":[null,null]}`, []string{"data", "resp"}, nil},
		{"folded keys", `{"Events":["cmd"],"PROPS":{"busy":true}}`, []string{"cmd"}, []string{"busy"}},
		{"long s key", `{"event\u017f":["cmd"]}`, []string{"cmd"}, nil},
		{"long s key raw", "{\"event\u017f\":[\"resp\"]}", []string{"resp"}, nil},
		{"folded key repeats", `{"events":["cmd"],"EVENTS":["resp"]}`, []string{"resp"}, nil},
		{"null element", `{"events":[null,"cmd",null]}`, []string{"cmd"}, nil},
		{"top-level null", `null`, nil, nil},
		{"unknown field", `{"extra":true}`, nil, nil},
		{"unknown fields of every type", `{"x":{"y":[1,-2.5e-3,{"z":null}],"w":"}"},"events":["cmd"],"n":false}`, []string{"cmd"}, nil},
		{"invalid UTF-8", "{\"events\":[\"a\xff\"]}", []string{"a\uFFFD"}, nil},
	}
	for _, c := range cases {
		want := v.Pack(NewState().WithEvents(c.events...).WithProps(c.props...))
		ref := refDecode(t, v, c.body)
		var got PackedBatch
		n, err := NewBatchDecoder(v).Decode([]byte(c.body), &got, 0)
		if err != nil || n != 1 || len(ref) != 1 {
			t.Errorf("%s: decoded %d ticks, %v; reference %d", c.name, n, err, len(ref))
			continue
		}
		if !ref[0].Equal(want) {
			t.Errorf("%s: reference packs %x, want %x", c.name, ref[0], want)
		}
		if !got.Tick(0).Equal(want) {
			t.Errorf("%s: packed %x, want %x", c.name, got.Tick(0), want)
		}
	}
	// Literals need no separator between values of a stream.
	body := `null{}null` + "\n" + `{"events":["cmd"]}null`
	ref := refDecode(t, v, body)
	var got PackedBatch
	if n, err := NewBatchDecoder(v).Decode([]byte(body), &got, 0); err != nil || n != len(ref) || n != 5 {
		t.Fatalf("%s: decoded %d ticks, %v; reference %d", body, n, err, len(ref))
	}
	for i := range ref {
		if !got.Tick(i).Equal(ref[i]) {
			t.Errorf("%s: tick %d packed %x, want %x", body, i, got.Tick(i), ref[i])
		}
	}
}

// TestBatchDecoderErrors lists bodies encoding/json refuses as a stream
// of StateJSON values; the decoder refuses each too.
func TestBatchDecoderErrors(t *testing.T) {
	v := testVocab(t)
	bad := []string{
		`{"events":["cmd"]`,           // unterminated object
		`{"events":"cmd"}`,            // not an array
		`{"events":[123]}`,            // not a string
		`{"events":[true]}`,           // not a string
		`{"props":{"busy":1}}`,        // not a bool
		`{"props":{"busy":"true"}}`,   // not a bool
		`{"props":["busy"]}`,          // not an object
		`{"props":{"busy":truex}}`,    // bad literal
		`{"events":["\q"]}`,           // bad escape
		`{"events":["\u00"]}`,         // truncated \u
		"{\"events\":[\"a\tb\"]}",     // control byte in a string
		`{"x":[1,]}`,                  // bad unknown value
		`{"x":01}`,                    // bad number
		`[{"events":["cmd"]}]`,        // array wrapper, not NDJSON
		`"tick"`,                      // not an object
		`{"events":["cmd"]} trailing`, // trailing garbage
		`nul`,                         // truncated literal
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, // nested past encoding/json's bound
	}
	for i, body := range bad {
		d := NewBatchDecoder(v)
		var got PackedBatch
		if _, err := d.Decode([]byte(body), &got, 0); err == nil {
			t.Errorf("body %d (%.40s): expected error", i, body)
		}
		if json.Valid([]byte(body)) {
			var tick refTick
			if json.Unmarshal([]byte(body), &tick) == nil {
				t.Errorf("body %d (%.40s): encoding/json accepts it", i, body)
			}
		}
	}
}

func TestBatchDecoderTickLimit(t *testing.T) {
	v := testVocab(t)
	body := strings.Repeat(`{"events":["cmd"]}`+"\n", 5)
	d := NewBatchDecoder(v)
	var got PackedBatch
	n, err := d.Decode([]byte(body), &got, 3)
	if !IsTooManyTicks(err) {
		t.Fatalf("err = %v, want too-many-ticks", err)
	}
	if n <= 3 {
		t.Fatalf("n = %d, want > limit to signal overflow", n)
	}
	if _, err := d.Decode([]byte(body), &got, 5); err != nil {
		t.Fatalf("at-limit decode: %v", err)
	}
	if _, err := d.Decode([]byte(body), &got, 6); err != nil {
		t.Fatalf("under-limit decode: %v", err)
	}
}

func TestBatchDecoderSurrogatePairs(t *testing.T) {
	v := NewVocabulary()
	v.MustDeclare("pair\U0001D11E", KindEvent) // U+1D11E musical G clef
	body := `{"events":["pair𝄞"]}`
	d := NewBatchDecoder(v)
	var got PackedBatch
	if _, err := d.Decode([]byte(body), &got, 0); err != nil {
		t.Fatal(err)
	}
	if !got.Tick(0).Bit(0) {
		t.Fatal("literal astral-plane name did not resolve")
	}
	escaped := `{"events":["pair\uD834\uDD1E"]}`
	var gotEsc PackedBatch
	if _, err := d.Decode([]byte(escaped), &gotEsc, 0); err != nil {
		t.Fatal(err)
	}
	if !gotEsc.Tick(0).Bit(0) {
		t.Fatal("surrogate-pair escaped name did not resolve")
	}
	// Lone surrogates become the replacement rune, exactly like
	// encoding/json — verified against the reference path.
	lone := `{"events":["pair\uD834"]}`
	want := refDecode(t, v, lone)
	var got2 PackedBatch
	if _, err := d.Decode([]byte(lone), &got2, 0); err != nil {
		t.Fatal(err)
	}
	if !got2.Tick(0).Equal(want[0]) {
		t.Fatalf("lone surrogate: packed %x, want %x", got2.Tick(0), want[0])
	}
}

// TestBatchDecoderZeroAlloc locks in the acceptance criterion: steady
// state decoding allocates nothing per tick (the backing array is
// reused across Decodes).
func TestBatchDecoderZeroAlloc(t *testing.T) {
	v := testVocab(t)
	var sb strings.Builder
	for k := 0; k < 64; k++ {
		fmt.Fprintf(&sb, `{"events":["cmd","resp"],"props":{"busy":true}}`+"\n")
	}
	body := []byte(sb.String())
	d := NewBatchDecoder(v)
	var batch PackedBatch
	if _, err := d.Decode(body, &batch, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.Decode(body, &batch, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decode allocates %.1f/op, want 0", allocs)
	}
}
