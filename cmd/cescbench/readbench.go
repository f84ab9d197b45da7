package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ocp"
	"repro/internal/parser"
	"repro/internal/server"
)

// readBenches is the read-path pair, over the bodies of an assert
// session on the Fig. 6 OCP chart after 16 batches of 1024 ticks of
// traffic at fault rate 0.2 (what assert_diag's OCP streams read while
// they ingest):
//
//	EncodeVerdictsFig6Assert — cescd's verdicts writer into a reused
//	                buffer. Must stay 0 allocs/op.
//	DecodeDiagnosticsFig6Assert — the client's strict decoder of the
//	                diagnostics body: a few allocations per body (intern
//	                table, slabs), not per value as encoding/json's.
func readBenches() ([]namedBench, error) {
	verdicts, diagnostics, err := assertFig6Bodies()
	if err != nil {
		return nil, err
	}
	var v server.VerdictsJSON
	if err := json.Unmarshal(verdicts, &v); err != nil {
		return nil, err
	}
	return []namedBench{
		{"EncodeVerdictsFig6Assert", func(b *testing.B) {
			buf := server.AppendVerdicts(nil, v)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = server.AppendVerdicts(buf[:0], v)
			}
		}},
		{"DecodeDiagnosticsFig6Assert", func(b *testing.B) {
			b.SetBytes(int64(len(diagnostics)))
			for i := 0; i < b.N; i++ {
				if _, err := server.DecodeDiagnostics(diagnostics); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}, nil
}

// assertFig6Bodies runs the session in process and returns the bodies
// cescd serves for it.
func assertFig6Bodies() (verdicts, diagnostics []byte, err error) {
	s, err := server.New(server.Config{Shards: 1, QueueDepth: 4})
	if err != nil {
		return nil, nil, err
	}
	defer s.Close()
	if _, err := s.LoadSpecSource(parser.Print("OcpSimpleRead", ocp.SimpleReadChart())); err != nil {
		return nil, nil, err
	}
	h := s.Handler()
	serve := func(method, path string, body []byte, want int) ([]byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes(), nil
	}
	created, err := serve("POST", "/sessions", []byte(`{"specs":["OcpSimpleRead"],"mode":"assert"}`), http.StatusCreated)
	if err != nil {
		return nil, nil, err
	}
	var info server.SessionInfoJSON
	if err := json.Unmarshal(created, &info); err != nil {
		return nil, nil, err
	}
	tr := ocp.NewModel(ocp.Config{Gap: 2, Seed: 1, FaultRate: 0.2}).GenerateTrace(16 * 1024)
	for i := 0; i < 16; i++ {
		var body []byte
		for _, st := range tr[i*1024 : (i+1)*1024] {
			body = server.AppendTick(body, server.EncodeState(st))
		}
		if _, err := serve("POST", "/sessions/"+info.ID+"/ticks?wait=1", body, http.StatusOK); err != nil {
			return nil, nil, err
		}
	}
	if verdicts, err = serve("GET", "/sessions/"+info.ID+"/verdicts", nil, http.StatusOK); err != nil {
		return nil, nil, err
	}
	diagnostics, err = serve("GET", "/sessions/"+info.ID+"/diagnostics", nil, http.StatusOK)
	return verdicts, diagnostics, err
}
