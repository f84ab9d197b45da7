package server

import (
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/mine"
)

// minedSpec is one mined chart in the POST /specs/mine response.
type minedSpec struct {
	Name   string       `json:"name"`
	Source string       `json:"source"`
	Result *mine.Result `json:"result"`
	Loaded bool         `json:"loaded"`
}

// handleMineSpecs mines CESC charts from an NDJSON trace corpus posted
// in the daemon's own wire format (one state per line, blank lines
// separating segments) and hot-loads every chart that clears the
// validation gate into the spec registry, ready for POST /sessions.
//
// Query parameters: name (chart base name), clock, min_support,
// confidence, max_window, negatives=1, validate=0 (skip the gate and
// load nothing), replace=1 (overwrite registry names). Responds 201
// with the mined charts and their gate verdicts, 422 when mining yields
// nothing that passes, 400 on a malformed corpus or parameters. Corpus
// symbols no chart can name are skipped and listed under
// skipped_symbols.
func (s *Server) handleMineSpecs(w http.ResponseWriter, r *http.Request) {
	ArmBodyDeadline(w)
	body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	corpus, err := mine.ReadNDJSON(strings.NewReader(string(body)))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "corpus: %v", err)
		return
	}

	q := r.URL.Query()
	cfg := mine.Config{
		ChartName: q.Get("name"),
		Clock:     q.Get("clock"),
		Seed:      1,
	}
	for param, dst := range map[string]*int{
		"min_support": &cfg.MinSupport,
		"max_window":  &cfg.MaxWindow,
	} {
		if v := q.Get(param); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				WriteError(w, http.StatusBadRequest, "%s must be a non-negative integer", param)
				return
			}
			*dst = n
		}
	}
	if v := q.Get("confidence"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 || f > 1 {
			WriteError(w, http.StatusBadRequest, "confidence must be in (0, 1]")
			return
		}
		cfg.Confidence = f
	}
	cfg.Negatives = q.Get("negatives") == "1"
	validate := q.Get("validate") != "0"
	replace := q.Get("replace") == "1"

	var specs []minedSpec
	if validate {
		ms, rs, err := mine.MineValidated(corpus, cfg)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "mining: %v", err)
			return
		}
		for i, m := range ms {
			specs = append(specs, minedSpec{Name: m.Name, Source: m.Source(), Result: rs[i]})
		}
	} else {
		ms, err := mine.Mine(corpus, cfg)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "mining: %v", err)
			return
		}
		for _, m := range ms {
			specs = append(specs, minedSpec{Name: m.Name, Source: m.Source()})
		}
	}

	// Load passing charts (every chart when the gate was skipped) into
	// the registry; LoadSource compiles before swapping, so a load
	// failure never leaves a half-registered chart.
	var loaded []string
	for i := range specs {
		if validate && (specs[i].Result == nil || !specs[i].Result.Pass) {
			continue
		}
		names, err := s.specs.LoadSource(specs[i].Source, replace)
		if err != nil {
			code := http.StatusBadRequest
			if strings.Contains(err.Error(), "already loaded") {
				code = http.StatusConflict
			}
			WriteError(w, code, "loading mined chart %s: %v", specs[i].Name, err)
			return
		}
		specs[i].Loaded = true
		loaded = append(loaded, names...)
	}
	resp := map[string]any{"mined": specs}
	if skipped := corpus.SkippedSymbols(); len(skipped) > 0 {
		resp["skipped_symbols"] = skipped
	}
	if len(loaded) == 0 {
		resp["error"] = "no mined chart passed the validation gate"
		WriteJSON(w, http.StatusUnprocessableEntity, resp)
		return
	}
	resp["loaded"] = loaded
	WriteJSON(w, http.StatusCreated, resp)
}
