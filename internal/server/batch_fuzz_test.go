package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/event"
)

// encodingJSONBodies are tick bodies on which the strict decoder and
// encoding/json once disagreed: each packs as encoding/json reads it.
var encodingJSONBodies = []string{
	`{"props":{"busy":true,"busy":false}}`,
	`{"props":{"busy":true,"idle":null}}`,
	`{"props":{"busy":true},"props":{"idle":true},"props":null}`,
	`{"events":["a","b"],"events":["c"]}`,
	`{"events":["a"],"events":null}`,
	`{"events":["a","b"],"events":[null,"c",null]}`,
	`{"events":["a","b"],"events":[],"events":[null]}`,
	`{"Events":["a"],"PROPS":{"busy":true}}`,
	`{"event\u017f":["a"]}`,
	"{\"eventſ\":[\"a\"]}",
	`{"events":[null,"a"]}`,
	`null`,
	`null{"events":["a"]}null`,
	`{"events":["a\ufffd","a\ud800"]}`,
	"{\"events\":[\"a\xff\"]}",
	`{"extra":{"x":[1,true,null,"}"]},"events":["a"]}`,
}

// refBatch is the encoding/json reading of an NDJSON tick body that the
// tick decoder must reproduce: json.Decoder into StateJSON value by
// value, ToState, then PackedBatch.AppendState.
func refBatch(vocab *event.Vocabulary, body []byte) (*event.PackedBatch, error) {
	pb := new(event.PackedBatch)
	pb.Reset(vocab.Len())
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var t StateJSON
		if err := dec.Decode(&t); err == io.EOF {
			return pb, nil
		} else if err != nil {
			return nil, err
		}
		pb.AppendState(vocab, t.ToState())
	}
}

// stringsVocab declares every string token of body, up to its first
// syntax error, as an event and as a prop.
func stringsVocab(body []byte) *event.Vocabulary {
	vocab := event.NewVocabulary()
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return vocab
		}
		if s, ok := tok.(string); ok && s != "" {
			vocab.MustDeclare(s, event.KindEvent)
			vocab.MustDeclare(s, event.KindProp)
		}
	}
}

// batchSeeds are the NDJSON bodies of the golden journals (tail files,
// raw frames, and JSON batch frames as AppendTicks writes them),
// FuzzAppendTick's ticks and encodingJSONBodies.
func batchSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, gj := range goldenJournals {
		for _, gs := range gj.sessions {
			if gs.tail != "" {
				data, err := os.ReadFile(filepath.Join(goldenJournalsDir, gj.dir, gs.tail))
				if err != nil {
					tb.Fatal(err)
				}
				seeds = append(seeds, data)
			}
			for _, rec := range goldenRecords(tb, gj.dir, gs.id) {
				switch rec.Kind {
				case recBatchRaw, recBatchRawTraced:
					_, _, _, raw, err := parseRawBatch(rec)
					if err != nil {
						tb.Fatal(err)
					}
					seeds = append(seeds, raw)
				case recBatch:
					var br batchRecordJSON
					if err := json.Unmarshal(rec.Payload, &br); err != nil {
						tb.Fatal(err)
					}
					seeds = append(seeds, AppendTicks(nil, br.Ticks))
				}
			}
		}
	}
	for _, tk := range tickCases {
		seeds = append(seeds, AppendTick(nil, tk))
	}
	seeds = append(seeds, AppendTicks(nil, tickCases))
	for _, body := range encodingJSONBodies {
		seeds = append(seeds, []byte(body))
	}
	return seeds
}

// FuzzBatchDecode checks the one tick decoder against encoding/json on
// arbitrary bytes, over a vocabulary that declares every name the body
// holds: decodeBatch packs exactly the ticks refBatch packs, or refuses
// a body that refBatch refuses or finds empty, with a 400 that names the
// tick.
func FuzzBatchDecode(f *testing.F) {
	for _, body := range batchSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		vocab := stringsVocab(body)
		want, wantErr := refBatch(vocab, body)
		got, err := decodeBatch(vocab, body, 0)
		if wantErr != nil || want.Len() == 0 {
			var de *decodeError
			if !errors.As(err, &de) || de.status != 400 ||
				!strings.HasPrefix(de.msg, "tick ") && de.msg != "no ticks in body" {
				t.Fatalf("%q: encoding/json refuses (%v), decodeBatch returns %v", body, wantErr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q: encoding/json packs %d ticks, decodeBatch refuses: %v", body, want.Len(), err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%q: decodeBatch packs %d ticks, encoding/json %d", body, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if !got.Tick(i).Equal(want.Tick(i)) {
				t.Fatalf("%q: tick %d packs %v, encoding/json %v", body, i, got.Tick(i), want.Tick(i))
			}
		}
	})
}
