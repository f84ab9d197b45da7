package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/jsonx"
)

// Every cescd body is compact JSON sent with a Content-Length in one
// Write. Cold endpoints take WriteJSON (json.Marshal); the bodies a
// client reads while it streams — the ticks acknowledgment, verdicts and
// diagnostics — are appended by hand into a pooled buffer. The appenders
// write exactly json.Marshal's bytes plus a newline: the same field
// order and omitempty, encoding/json's float form and its HTML-safe
// string escaping. FuzzReadBodies pins that.

// bodyBufs recycles the buffers the hand-appended bodies are built in.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody keeps a rare huge body's buffer out of the pool.
const maxPooledBody = 1 << 20

// writeBody sends body as one application/json response.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// writeVerdicts, writeDiagnostics and writeAck send one hand-appended
// body from a pooled buffer.
func writeVerdicts(w http.ResponseWriter, v VerdictsJSON) {
	bp := bodyBufs.Get().(*[]byte)
	*bp = AppendVerdicts((*bp)[:0], v)
	writeBody(w, http.StatusOK, *bp)
	putBody(bp)
}

func writeDiagnostics(w http.ResponseWriter, d DiagnosticsJSON) {
	bp := bodyBufs.Get().(*[]byte)
	*bp = AppendDiagnostics((*bp)[:0], d)
	writeBody(w, http.StatusOK, *bp)
	putBody(bp)
}

func writeAck(w http.ResponseWriter, code int, a ackJSON) {
	bp := bodyBufs.Get().(*[]byte)
	*bp = appendAck((*bp)[:0], a)
	writeBody(w, code, *bp)
	putBody(bp)
}

func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyBufs.Put(bp)
	}
}

// WriteJSON sends v as a compact JSON response: json.Marshal's bytes and
// a newline. It is the one writer of every cescd body, the cluster
// endpoints' included, that is not hand-appended.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	writeBody(w, code, append(b, '\n'))
}

// WriteError sends {"error": message} with the given status.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, errorJSON{fmt.Sprintf(format, args...)})
}

// errorJSON is the body of every error response.
type errorJSON struct {
	Error string `json:"error"`
}

// ackJSON is the acknowledgment of a ticks or VCD request. Processed is
// absent on a plain 202, true once the batch was stepped, and false on
// a 202 whose ?wait=1 the governor shed.
type ackJSON struct {
	Accepted  int    `json:"accepted"`
	Duplicate bool   `json:"duplicate,omitempty"`
	Processed *bool  `json:"processed,omitempty"`
	Seq       uint64 `json:"seq,omitempty"`
	Trace     string `json:"trace,omitempty"`
}

// appendAck appends a as json.Marshal writes it, and a newline.
func appendAck(dst []byte, a ackJSON) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(a.Accepted), 10)
	if a.Duplicate {
		dst = append(dst, `,"duplicate":true`...)
	}
	if a.Processed != nil {
		dst = append(dst, `,"processed":`...)
		dst = strconv.AppendBool(dst, *a.Processed)
	}
	if a.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, a.Seq, 10)
	}
	if a.Trace != "" {
		dst = append(dst, `,"trace":`...)
		dst = jsonx.AppendString(dst, a.Trace)
	}
	return append(dst, '}', '\n')
}

// AppendVerdicts appends v as json.Marshal writes it, and a newline.
func AppendVerdicts(dst []byte, v VerdictsJSON) []byte {
	dst = appendSessionHead(dst, v.Session, v.Mode)
	if v.Monitors == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range v.Monitors {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendMonitorVerdict(dst, &v.Monitors[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n')
}

// AppendDiagnostics appends d as json.Marshal writes it, and a newline.
func AppendDiagnostics(dst []byte, d DiagnosticsJSON) []byte {
	dst = appendSessionHead(dst, d.Session, d.Mode)
	if d.Monitors == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range d.Monitors {
			if i > 0 {
				dst = append(dst, ',')
			}
			m := &d.Monitors[i]
			dst = append(dst, `{"spec":`...)
			dst = jsonx.AppendString(dst, m.Spec)
			dst = append(dst, `,"violations":`...)
			dst = strconv.AppendInt(dst, int64(m.Violations), 10)
			dst = appendDiagnosticList(dst, m.Diagnostics)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n')
}

// appendSessionHead opens a verdicts or diagnostics body up to the
// monitors value.
func appendSessionHead(dst []byte, session, mode string) []byte {
	dst = append(dst, `{"session":`...)
	dst = jsonx.AppendString(dst, session)
	dst = append(dst, `,"mode":`...)
	dst = jsonx.AppendString(dst, mode)
	return append(dst, `,"monitors":`...)
}

func appendMonitorVerdict(dst []byte, m *MonitorVerdictJSON) []byte {
	dst = append(dst, `{"spec":`...)
	dst = jsonx.AppendString(dst, m.Spec)
	dst = append(dst, `,"steps":`...)
	dst = strconv.AppendInt(dst, int64(m.Steps), 10)
	dst = append(dst, `,"accepts":`...)
	dst = strconv.AppendInt(dst, int64(m.Accepts), 10)
	dst = append(dst, `,"violations":`...)
	dst = strconv.AppendInt(dst, int64(m.Violations), 10)
	dst = append(dst, `,"fallbacks":`...)
	dst = strconv.AppendInt(dst, int64(m.Fallbacks), 10)
	dst = append(dst, `,"last_accept_tick":`...)
	dst = strconv.AppendInt(dst, int64(m.LastAcceptTick), 10)
	if len(m.AcceptTicks) > 0 {
		dst = append(dst, `,"accept_ticks":[`...)
		for i, t := range m.AcceptTicks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(t), 10)
		}
		dst = append(dst, ']')
	}
	c := &m.Coverage
	dst = append(dst, `,"coverage":{"state":`...)
	dst = jsonx.AppendFloat(dst, c.State)
	dst = append(dst, `,"transition":`...)
	dst = jsonx.AppendFloat(dst, c.Transition)
	dst = append(dst, `,"hard_resets":`...)
	dst = strconv.AppendUint(dst, c.HardResets, 10)
	if len(c.Uncovered) > 0 {
		dst = append(dst, `,"uncovered":`...)
		dst = jsonx.AppendStrings(dst, c.Uncovered)
	}
	dst = append(dst, '}')
	dst = appendDiagnosticList(dst, m.Diagnostics)
	if m.Quarantined {
		dst = append(dst, `,"quarantined":true`...)
	}
	if m.QuarantineReason != "" {
		dst = append(dst, `,"quarantine_reason":`...)
		dst = jsonx.AppendString(dst, m.QuarantineReason)
	}
	return append(dst, '}')
}

// appendDiagnosticList appends a monitor's omitempty diagnostics member.
func appendDiagnosticList(dst []byte, ds []DiagnosticJSON) []byte {
	if len(ds) == 0 {
		return dst
	}
	dst = append(dst, `,"diagnostics":[`...)
	for i := range ds {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendDiagnostic(dst, &ds[i])
	}
	return append(dst, ']')
}

func appendDiagnostic(dst []byte, d *DiagnosticJSON) []byte {
	dst = append(dst, `{"tick":`...)
	dst = strconv.AppendInt(dst, int64(d.Tick), 10)
	if d.Monitor != "" {
		dst = append(dst, `,"monitor":`...)
		dst = jsonx.AppendString(dst, d.Monitor)
	}
	dst = append(dst, `,"grid_line":`...)
	dst = strconv.AppendInt(dst, int64(d.GridLine), 10)
	dst = append(dst, `,"from_state":`...)
	dst = strconv.AppendInt(dst, int64(d.FromState), 10)
	if d.Guard != "" {
		dst = append(dst, `,"guard":`...)
		dst = jsonx.AppendString(dst, d.Guard)
	}
	if len(d.Guards) > 0 {
		dst = append(dst, `,"guards":`...)
		dst = jsonx.AppendStrings(dst, d.Guards)
	}
	dst = append(dst, `,"valuation":`...)
	dst = strconv.AppendUint(dst, d.Valuation, 10)
	dst = append(dst, `,"input":`...)
	dst = appendState(dst, d.Input)
	if len(d.Recent) > 0 {
		dst = append(dst, `,"recent":[`...)
		for i, st := range d.Recent {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendState(dst, st)
		}
		dst = append(dst, ']')
	}
	if len(d.Scoreboard) > 0 {
		dst = append(dst, `,"scoreboard":`...)
		dst = jsonx.AppendStrings(dst, d.Scoreboard)
	}
	return append(dst, '}')
}
