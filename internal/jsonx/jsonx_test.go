package jsonx

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// lexerSeeds cover every token kind, each escape, invalid UTF-8,
// surrogates paired and not, and values encoding/json refuses.
var lexerSeeds = []string{
	`null`, `true`, `false`, `nul`, `truex`, `nullnull`,
	`0`, `-0`, `01`, `-`, `1.`, `1.5`, `-12.5e+3`, `1E-7`, `1e`, `1e400`, `123456789012345678901234567890`,
	`""`, `"plain"`, `"\"\\\/\b\f\n\r\t"`, "\"é\u2028\"", `"𝄞"`, `"\ud834"`, `"\udd1e\ud834x"`,
	`"\ud834A"`, `"\q"`, `"\u12"`, `"\u12g4"`, "\"tab\there\"", "\"bad\xffutf8\xc3\"", "\"é日本\"", `"open`,
	`{}`, `[]`, ` { "a" : [ 1 , { "b" : null } ] } `, `{"a":1,}`, `[1,]`, `{"a" 1}`, `{1:2}`, `[1 2]`,
	`{"a":1}x`, `{"a":1} {}`,
}

// FuzzLexer holds the lexer to encoding/json: Skip over one value then
// only whitespace accepts exactly what json.Valid accepts, and a string
// or number value decodes to what json.Unmarshal makes of it.
func FuzzLexer(f *testing.F) {
	for _, s := range lexerSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l := Lexer{Data: data}
		err := l.Skip(0)
		l.Space()
		valid := err == nil && l.Pos == len(data)
		if want := json.Valid(data); valid != want {
			t.Fatalf("%q: lexer valid %v (%v), json.Valid %v", data, valid, err, want)
		}
		if !valid {
			return
		}
		l.Reset(data)
		switch c := l.Peek(); {
		case c == '"':
			got, err := l.Str()
			var want string
			if jerr := json.Unmarshal(data, &want); err != nil || jerr != nil || string(got) != want {
				t.Fatalf("%q: Str = %q, %v; json.Unmarshal = %q, %v", data, got, err, want, jerr)
			}
		case c == '-' || c >= '0' && c <= '9':
			got, err := l.Number()
			var num json.Number
			if jerr := json.Unmarshal(data, &num); err != nil || jerr != nil || string(got) != string(num) {
				t.Fatalf("%q: Number = %q, %v; json.Unmarshal = %q, %v", data, got, err, num, jerr)
			}
			var want float64
			jerr := json.Unmarshal(data, &want)
			f, perr := strconv.ParseFloat(string(got), 64)
			if (jerr == nil) != (perr == nil) || jerr == nil && f != want {
				t.Fatalf("%q: ParseFloat = %v, %v; json.Unmarshal = %v, %v", data, f, perr, want, jerr)
			}
		}
	})
}

// TestSkipDepth checks Skip's nesting bound against encoding/json's:
// maxDepth open containers pass, one more fails.
func TestSkipDepth(t *testing.T) {
	for _, n := range []int{maxDepth, maxDepth + 1} {
		data := []byte(strings.Repeat("[", n) + strings.Repeat("]", n))
		l := Lexer{Data: data}
		if got, want := l.Skip(0) == nil, json.Valid(data); got != want || want != (n <= maxDepth) {
			t.Errorf("%d deep: Skip ok %v, json.Valid %v", n, got, want)
		}
	}
}

// TestAppendString checks the writer against json.Marshal.
func TestAppendString(t *testing.T) {
	for _, s := range []string{"", "plain", `"q" \ /`, "<a&b>", "tab\t\x00\x1f\x7f", "\u2028\u2029", "bad\xff\xc3", "é日本𝄞"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
}
