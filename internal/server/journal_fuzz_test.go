package server

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/wal"
)

// FuzzJournalReplay feeds one arbitrary record to the journal restorer
// after a valid meta record: it must either fold into the session or
// return an error, never panic, and a session it accepts must still
// render verdicts and a snapshot. The seeds are the records of the
// golden journals, each after the meta of its own session (read from the
// meta record, or from the snapshot that replaced it).
func FuzzJournalReplay(f *testing.F) {
	var metas [][]byte
	for _, gj := range goldenJournals {
		for _, gs := range gj.sessions {
			recs := goldenRecords(f, gj.dir, gs.id)
			meta := recs[0].Payload
			if recs[0].Kind == recSnapshot {
				var snap snapshotRecordJSON
				if err := json.Unmarshal(meta, &snap); err != nil {
					f.Fatal(err)
				}
				var err error
				if meta, err = json.Marshal(snap.Meta); err != nil {
					f.Fatal(err)
				}
			}
			for _, rec := range recs {
				f.Add(uint8(len(metas)), rec.Kind, rec.Payload)
			}
			metas = append(metas, meta)
		}
	}
	srv, err := New(Config{Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, session uint8, kind byte, payload []byte) {
		meta := metas[int(session)%len(metas)]
		if kind == recMeta || kind == recSnapshot {
			// Resynthesizing mutated spec sources would fuzz the compiler
			// (and can enumerate 2^24 valuations per input); keep the
			// golden specs and fuzz the rest of the record.
			var golden, got snapshotRecordJSON
			_ = json.Unmarshal(meta, &golden.Meta)
			if kind == recMeta {
				_ = json.Unmarshal(payload, &got.Meta)
			} else {
				_ = json.Unmarshal(payload, &got)
			}
			if !slices.Equal(got.Meta.Specs, golden.Meta.Specs) {
				return
			}
		}
		var metaErr error
		sess, err := srv.restore("recovery", func(apply func(wal.Record) error) error {
			if metaErr = apply(wal.Record{Kind: recMeta, Payload: meta}); metaErr != nil {
				return metaErr
			}
			return apply(wal.Record{Kind: kind, Payload: payload})
		})
		if metaErr != nil {
			t.Fatalf("golden meta record: %v", metaErr)
		}
		if err != nil {
			return
		}
		if sess == nil {
			t.Fatalf("record kind %d accepted without a session", kind)
		}
		sess.verdicts()
		sess.diagnostics()
		if _, err := json.Marshal(buildSnapshotRecord(sess)); err != nil {
			t.Fatalf("snapshot of the replayed session: %v", err)
		}
	})
}
