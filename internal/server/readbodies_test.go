package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/ocp"
)

// marshalLine is the reference rendering of a body: json.Marshal and a
// newline.
func marshalLine(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// bodyGen builds verdicts and diagnostics values from a seed and a pool
// of names, in the form a decode gives back: an omitempty slice or map
// is nil or non-empty, and no float is NaN or infinite. valid reports
// whether every name it used is valid UTF-8, so that a decode returns
// the same names.
type bodyGen struct {
	r     *rand.Rand
	names []string
	valid bool
}

func newBodyGen(seed int64, names string) *bodyGen {
	g := &bodyGen{r: rand.New(rand.NewSource(seed)), valid: true}
	for _, n := range strings.Split(names, "\x00") {
		g.names = append(g.names, n)
	}
	g.names = append(g.names, "MCmd_rd", "SResp & SData", "ocp_simple_read")
	return g
}

func (g *bodyGen) name() string {
	n := g.names[g.r.Intn(len(g.names))]
	if !utf8.ValidString(n) {
		g.valid = false
	}
	return n
}

func (g *bodyGen) n(max int) int { return g.r.Intn(max + 1) }

func (g *bodyGen) int() int {
	switch g.r.Intn(4) {
	case 0:
		return g.r.Intn(64)
	case 1:
		return -g.r.Intn(1 << 20)
	case 2:
		return math.MaxInt - g.r.Intn(3)
	default:
		return math.MinInt + g.r.Intn(3)
	}
}

func (g *bodyGen) uint() uint64 {
	if g.r.Intn(2) == 0 {
		return uint64(g.r.Intn(64))
	}
	return g.r.Uint64()
}

func (g *bodyGen) float() float64 {
	special := []float64{0, math.Copysign(0, -1), 1, 0.5, 1e-6, 9.99e-7, 1e21, 1e20, 5e-324, math.MaxFloat64, 2.0 / 3}
	if g.r.Intn(2) == 0 {
		return special[g.r.Intn(len(special))]
	}
	for {
		if f := math.Float64frombits(g.r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func (g *bodyGen) strings(omitNil bool) []string {
	n := g.n(4)
	if n == 0 && omitNil {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = g.name()
	}
	return ss
}

func (g *bodyGen) state() StateJSON {
	st := StateJSON{Events: g.strings(true)}
	if n := g.n(20); n > 0 && g.r.Intn(2) == 0 {
		st.Props = map[string]bool{}
		for i := 0; i < n; i++ {
			st.Props[g.name()] = g.r.Intn(2) == 0
		}
	}
	return st
}

func (g *bodyGen) diagnostics() []DiagnosticJSON {
	n := g.n(3)
	if n == 0 {
		return nil
	}
	ds := make([]DiagnosticJSON, n)
	for i := range ds {
		d := DiagnosticJSON{
			Tick: g.int(), GridLine: g.int(), FromState: g.int(),
			Guards: g.strings(true), Valuation: g.uint(),
			Input: g.state(), Scoreboard: g.strings(true),
		}
		if g.r.Intn(2) == 0 {
			d.Monitor, d.Guard = g.name(), g.name()
		}
		for j := g.n(3); j > 0; j-- {
			d.Recent = append(d.Recent, g.state())
		}
		ds[i] = d
	}
	return ds
}

func (g *bodyGen) verdicts() VerdictsJSON {
	v := VerdictsJSON{Session: g.name(), Mode: g.name()}
	if g.r.Intn(5) == 0 {
		return v // monitors: null
	}
	v.Monitors = []MonitorVerdictJSON{}
	for i := g.n(3); i > 0; i-- {
		m := MonitorVerdictJSON{
			Spec: g.name(), Steps: g.int(), Accepts: g.int(), Violations: g.int(),
			Fallbacks: g.int(), LastAcceptTick: g.int(),
			Coverage: CoverageJSON{State: g.float(), Transition: g.float(),
				HardResets: g.uint(), Uncovered: g.strings(true)},
			Diagnostics: g.diagnostics(),
			Quarantined: g.r.Intn(2) == 0,
		}
		for j := g.n(5); j > 0; j-- {
			m.AcceptTicks = append(m.AcceptTicks, g.int())
		}
		if m.Quarantined {
			m.QuarantineReason = g.name()
		}
		v.Monitors = append(v.Monitors, m)
	}
	return v
}

func (g *bodyGen) diagnosticsBody() DiagnosticsJSON {
	d := DiagnosticsJSON{Session: g.name(), Mode: g.name()}
	if g.r.Intn(5) == 0 {
		return d
	}
	d.Monitors = []MonitorDiagnosticsJSON{}
	for i := g.n(3); i > 0; i-- {
		d.Monitors = append(d.Monitors, MonitorDiagnosticsJSON{
			Spec: g.name(), Violations: g.int(), Diagnostics: g.diagnostics(),
		})
	}
	return d
}

// checkDecodeAgrees decodes data with the strict decoders and requires
// every success to be json.Unmarshal's value.
func checkDecodeAgrees(t *testing.T, data []byte) {
	t.Helper()
	if got, err := DecodeVerdicts(data); err == nil {
		var want VerdictsJSON
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("DecodeVerdicts accepts %q, json.Unmarshal refuses it: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeVerdicts(%q)\n = %#v\nwant %#v", data, got, want)
		}
	}
	if got, err := DecodeDiagnostics(data); err == nil {
		var want DiagnosticsJSON
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("DecodeDiagnostics accepts %q, json.Unmarshal refuses it: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeDiagnostics(%q)\n = %#v\nwant %#v", data, got, want)
		}
	}
}

// goldenBodies returns every frozen verdicts and diagnostics body under
// the golden journal directories.
func goldenBodies(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(goldenJournalsDir, "*", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden bodies: %v", err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = data
	}
	return out
}

// readBodyCases are byte seeds of FuzzReadBodies that the strict
// decoders must refuse or decode as json.Unmarshal does.
var readBodyCases = []string{
	`{"session":"s","mode":"assert","monitors":[]}`,
	`{"session":"s","mode":"assert","monitors":null}`,
	`{"SESSION":"s","monitors":[]}`,
	`{"session":"s","session":"t"}`,
	`{"session":null}`,
	`{"session":"s","extra":{"a":[1,2.5e-3,"x",true,null,{}]},"monitors":[{"spec":"x","steps":-0,"coverage":{"state":1e-7}}]}`,
	`{"session":"A😀\ud800x\udc00&\"\\\/\b\f\n\r\t","monitors":[{"diagnostics":[{"input":{"props":{"a":true,"a":false}},"recent":[{},{"events":[]}]}]}]}`,
	`{"monitors":[{"spec":"x","steps":9223372036854775808}]}`,
	`{"monitors":[{"coverage":{"hard_resets":18446744073709551615,"state":1e400}}]}`,
	`{"monitors":[{"accept_ticks":[1,2,3],"quarantined":null}]}`,
	`{"monitors":[{"spec":"x"}]} x`,
	"{\"session\":\"a\xffb\"}",
	`{"ſpec":1}`,
}

// FuzzReadBodies pins both directions of the read bodies. For generated
// values, AppendVerdicts and AppendDiagnostics write json.Marshal's
// bytes and a newline, and the strict decoders give the value back. On
// arbitrary bytes, a strict decoder never panics, and whatever it
// accepts it decodes exactly as json.Unmarshal does.
func FuzzReadBodies(f *testing.F) {
	for _, body := range goldenBodies(f) {
		f.Add(body, int64(len(body)), "")
	}
	for i, c := range readBodyCases {
		f.Add([]byte(c), int64(i), strings.Join(tickCases[i%len(tickCases)].Events, "\x00"))
	}
	f.Add([]byte{}, int64(7), "<script>\x00a&b\x00line\u2028sep\x00bad\xffutf8\x00nul\x00\x00tab\t")
	f.Fuzz(func(t *testing.T, data []byte, seed int64, names string) {
		checkDecodeAgrees(t, data)

		g := newBodyGen(seed, names)
		v, d := g.verdicts(), g.diagnosticsBody()
		for _, c := range []struct {
			name   string
			val    any
			body   []byte
			decode func([]byte) (any, error)
		}{
			{"verdicts", v, AppendVerdicts(nil, v), func(b []byte) (any, error) { return DecodeVerdicts(b) }},
			{"diagnostics", d, AppendDiagnostics(nil, d), func(b []byte) (any, error) { return DecodeDiagnostics(b) }},
		} {
			if want := marshalLine(t, c.val); !bytes.Equal(c.body, want) {
				t.Fatalf("%s: appended\n %q\njson.Marshal\n %q", c.name, c.body, want)
			}
			checkDecodeAgrees(t, c.body)
			got, err := c.decode(c.body)
			if err != nil {
				t.Fatalf("%s: decoding %q: %v", c.name, c.body, err)
			}
			if g.valid && !reflect.DeepEqual(got, c.val) {
				t.Fatalf("%s: round trip\n = %#v\nwant %#v", c.name, got, c.val)
			}
		}
	})
}

// TestReadBodiesGolden decodes every frozen body, indented as older
// daemons served it and compacted, through the strict decoders, which
// must accept it and agree with json.Unmarshal.
func TestReadBodiesGolden(t *testing.T) {
	for path, body := range goldenBodies(t) {
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{body, compact.Bytes()} {
			var err error
			if strings.Contains(filepath.Base(path), "diagnostics") {
				_, err = DecodeDiagnostics(data)
			} else {
				_, err = DecodeVerdicts(data)
			}
			if err != nil {
				t.Errorf("%s: %v", path, err)
			}
			checkDecodeAgrees(t, data)
		}
	}
}

// TestDecodeRefusals: what encoding/json would accept by folding a key,
// keeping the last of two, or ignoring a null, the strict decoders
// refuse.
func TestDecodeRefusals(t *testing.T) {
	for _, body := range []string{
		`{"Session":"s","mode":"m","monitors":[]}`,
		`{"session":"s","mode":"m","monitors":[{"SPEC":"x"}]}`,
		`{"session":"s","mode":"m","monitors":[{"ſpec":"x"}]}`,
		`{"session":"s","session":"t","mode":"m","monitors":[]}`,
		`{"session":"s","mode":"m","mode":"m","monitors":[]}`,
		`{"session":null,"mode":"m","monitors":[]}`,
		`{"session":"s","mode":"m","monitors":[{"steps":null}]}`,
		`{"session":"s","mode":"m","monitors":[{"coverage":null}]}`,
		`{"session":"s","mode":"m","monitors":[{"steps":1.0}]}`,
		`{"session":"s","mode":"m","monitors":[{"diagnostics":[{"input":{"props":{"p":null}}}]}]}`,
		`null`,
	} {
		if _, err := DecodeVerdicts([]byte(body)); err == nil {
			t.Errorf("DecodeVerdicts accepts %s", body)
		}
	}
}

// assertFig6Bodies serves the verdicts and diagnostics bodies of an
// assert session on the Fig. 6 OCP chart after 16 batches of 1024 ticks
// of faulty traffic.
func assertFig6Bodies(t *testing.T) (verdicts, diagnostics []byte) {
	_, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 4})
	sess := createSession(t, ts.URL, "assert", "OcpSimpleRead")
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 1, FaultRate: 0.2}).GenerateTrace(16 * 1024)
	for i := 0; i < 16; i++ {
		var body []byte
		for _, st := range tr[i*1024 : (i+1)*1024] {
			body = AppendTick(body, stateJSON(st))
		}
		doJSON(t, "POST", fmt.Sprintf("%s/sessions/%s/ticks?wait=1", ts.URL, sess.ID), body, 200, nil)
	}
	return getRaw(t, ts.URL+"/sessions/"+sess.ID+"/verdicts"), getRaw(t, ts.URL+"/sessions/"+sess.ID+"/diagnostics")
}

// TestReadBodiesAllocs holds the encoders at 0 allocations into a
// reused buffer and the decoders far below encoding/json's count,
// on the bodies of a busy assert session.
func TestReadBodiesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	vb, db := assertFig6Bodies(t)
	v, err := DecodeVerdicts(vb)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeDiagnostics(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Monitors) != 1 || len(v.Monitors[0].Diagnostics) == 0 {
		t.Fatalf("fixture has no diagnostics: %s", vb)
	}
	buf := make([]byte, 0, 2*len(vb))
	for name, fn := range map[string]func(){
		"AppendVerdicts":    func() { buf = AppendVerdicts(buf[:0], v) },
		"AppendDiagnostics": func() { buf = AppendDiagnostics(buf[:0], d) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, allocs)
		}
	}
	// The ceiling is loose against the measured count; what it guards
	// is the per-value cost encoding/json pays (over a thousand here).
	const maxDecodeAllocs = 40
	for name, fn := range map[string]func(){
		"DecodeVerdicts":    func() { _, _ = DecodeVerdicts(vb) },
		"DecodeDiagnostics": func() { _, _ = DecodeDiagnostics(db) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs > maxDecodeAllocs {
			t.Errorf("%s allocates %.1f/op, want at most %d", name, allocs, maxDecodeAllocs)
		}
	}
}

// TestAppendAck: the acknowledgment writer matches json.Marshal for
// every shape a ticks or VCD answer takes.
func TestAppendAck(t *testing.T) {
	yes, no := true, false
	for _, a := range []ackJSON{
		{Accepted: 1024},
		{Accepted: 3, Seq: 7, Trace: "ab<c>&d"},
		{Accepted: 64, Seq: 1, Processed: &yes},
		{Accepted: 32, Processed: &no},
		{Seq: 9, Duplicate: true},
	} {
		if got, want := appendAck(nil, a), marshalLine(t, a); !bytes.Equal(got, want) {
			t.Errorf("appendAck = %q, json.Marshal = %q", got, want)
		}
	}
}
