package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/token"
	"repro/internal/version"
)

// maxRequestBody bounds the generate request payload.
const maxRequestBody = 1 << 20

// maxDeadlineMS caps deadline_ms at 24 hours: larger values are
// nonsense and would overflow the nanosecond conversion.
const maxDeadlineMS = 24 * 60 * 60 * 1000

// maxIDLen bounds the request id echoed into responses and logs.
const maxIDLen = 128

// RequestError is a 4xx request-decoding failure, rendered as the
// repo-standard JSON error envelope.
type RequestError struct {
	Status  int
	Code    string
	Message string
}

// Error implements error.
func (e *RequestError) Error() string { return e.Code + ": " + e.Message }

func reqErr(status int, code, msg string) *RequestError {
	return &RequestError{Status: status, Code: code, Message: msg}
}

// ParseLimits bounds what a wire request may ask for.
type ParseLimits struct {
	// MaxSeq is the model context length.
	MaxSeq int
	// DefaultMaxNew substitutes an omitted max_tokens.
	DefaultMaxNew int
	// MaxNewCap rejects larger max_tokens.
	MaxNewCap int
}

// wireGenerateRequest is the POST /api/v1/generate payload.
type wireGenerateRequest struct {
	ID         string  `json:"id"`
	Prompt     string  `json:"prompt"`
	MaxTokens  int     `json:"max_tokens"`
	DeadlineMS *int64  `json:"deadline_ms"`
	Seed       *uint64 `json:"seed"`
}

// wireGenerateResponse is the success payload.
type wireGenerateResponse struct {
	ID        string  `json:"id"`
	Text      string  `json:"text"`
	Tokens    []int   `json:"tokens"`
	Steps     int     `json:"steps"`
	LatencyMS float64 `json:"latency_ms"`
	Injected  bool    `json:"injected,omitempty"`
	Fired     bool    `json:"fired,omitempty"`
	Site      string  `json:"site,omitempty"`
	Surface   string  `json:"surface,omitempty"`
	Outcome   string  `json:"outcome,omitempty"`
	Detected  int     `json:"detected,omitempty"`
}

// ParseGenerateRequest decodes and validates a generate payload into an
// engine Request. It never panics on any input (fuzzed: malformed JSON,
// absurd max_tokens, zero or negative deadlines) — every failure is a
// typed 4xx RequestError. Unknown fields are rejected, matching the
// fleet API's schema-drift discipline.
func ParseGenerateRequest(body []byte, vocab *token.Vocab, lim ParseLimits) (Request, *RequestError) {
	var wire wireGenerateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return Request{}, reqErr(http.StatusBadRequest, "bad_json", err.Error())
	}
	// A second document after the first is as malformed as a bad first.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Request{}, reqErr(http.StatusBadRequest, "bad_json", "trailing data after request object")
	}
	if len(wire.ID) > maxIDLen {
		return Request{}, reqErr(http.StatusBadRequest, "bad_id", "id longer than 128 bytes")
	}
	words := strings.Fields(wire.Prompt)
	if len(words) == 0 {
		return Request{}, reqErr(http.StatusBadRequest, "empty_prompt", "prompt has no tokens")
	}
	prompt := vocab.EncodeWords(words)
	maxNew := wire.MaxTokens
	if maxNew == 0 {
		maxNew = lim.DefaultMaxNew
	}
	if maxNew < 0 || maxNew > lim.MaxNewCap {
		return Request{}, reqErr(http.StatusBadRequest, "bad_max_tokens",
			"max_tokens outside the service's accepted range")
	}
	if len(prompt)+maxNew > lim.MaxSeq {
		return Request{}, reqErr(http.StatusBadRequest, "prompt_too_long",
			"prompt plus max_tokens exceeds the model context")
	}
	var deadline time.Duration
	if wire.DeadlineMS != nil {
		ms := *wire.DeadlineMS
		if ms <= 0 || ms > maxDeadlineMS {
			return Request{}, reqErr(http.StatusBadRequest, "bad_deadline",
				"deadline_ms must be in (0, 86400000]")
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	seed := requestSeed(wire.ID, wire.Prompt)
	if wire.Seed != nil {
		seed = *wire.Seed
	}
	return Request{
		ID:       wire.ID,
		Prompt:   prompt,
		MaxNew:   maxNew,
		Deadline: deadline,
		Seed:     seed,
	}, nil
}

// requestSeed derives a deterministic fault-sampling seed for wire
// requests that do not pin one.
func requestSeed(id, prompt string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{0})
	h.Write([]byte(prompt))
	return h.Sum64()
}

// limits resolves the engine's parse bounds.
func (e *Engine) limits() ParseLimits {
	return ParseLimits{
		MaxSeq:        e.m.Cfg.MaxSeq,
		DefaultMaxNew: e.cfg.DefaultMaxNew,
		MaxNewCap:     e.cfg.MaxNewCap,
	}
}

// Handler returns the serving HTTP surface: POST /api/v1/generate plus
// /healthz, /metrics, and the /debug/fleet live dashboard. The engine
// must have a Vocab.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(report.APIVersion+"/generate", e.handleGenerate)
	mux.HandleFunc("/healthz", e.handleHealthz)
	mux.HandleFunc("/metrics", obs.MetricsHandler(e.writeMetrics))
	mux.HandleFunc("/debug/fleet", obs.DashboardHandler(e.dashboardData))
	return mux
}

// writeMetrics renders the /metrics body: build identity (labelled with
// the span schema), then the serving metrics.
func (e *Engine) writeMetrics(w io.Writer) error {
	p := obs.NewMetricsWriter(w)
	p.BuildInfo(version.Version, obs.SchemaVersion)
	WriteMetricsText(p, e.met.Snapshot())
	return p.Flush()
}

// dashboardData gathers the live serving view for /debug/fleet.
func (e *Engine) dashboardData() obs.DashboardData {
	s := e.met.Snapshot()
	status := obs.DashboardSection{Title: "serving", Rows: [][2]string{
		{"in flight", fmtI(s.InFlight)},
		{"requests ok", fmtI(s.Requests[statusOK])},
		{"tokens", fmtI(s.Tokens)},
		{"slo violations", fmtI(s.SLOViolations)},
		{"injected", fmtI(s.Injected)},
		{"detected", fmtI(s.Detected)},
	}}
	slow := obs.DashboardSection{Title: "recent SLO violations (newest first)"}
	for _, sr := range e.SlowRequests() {
		detail := sr.Status
		if sr.Injected {
			detail += " site=" + sr.Site
			if sr.Fired {
				detail += " fired"
			}
			if sr.Outcome != "" {
				detail += " outcome=" + sr.Outcome
			}
		}
		if sr.Trace != "" {
			detail += " trace=" + sr.Trace
		}
		slow.Rows = append(slow.Rows, [2]string{
			sr.ID + " " + strconv.FormatFloat(sr.LatencyMS, 'f', 1, 64) + "ms",
			detail,
		})
	}
	var metrics strings.Builder
	_ = e.writeMetrics(&metrics)
	return obs.DashboardData{
		Title:    "llmfi serve",
		Version:  version.Version,
		Sections: []obs.DashboardSection{status, slow},
		Metrics:  metrics.String(),
		Spans:    e.cfg.Recorder.Recent(32),
	}
}

func fmtI(v int64) string { return strconv.FormatInt(v, 10) }

// handleGenerate runs one request through the engine.
func (e *Engine) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		report.WriteAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	if e.cfg.Vocab == nil {
		report.WriteAPIError(w, http.StatusInternalServerError, "no_vocab", "engine has no vocabulary")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		report.WriteAPIError(w, http.StatusRequestEntityTooLarge, "body_too_large", err.Error())
		return
	}
	req, rerr := ParseGenerateRequest(body, e.cfg.Vocab, e.limits())
	if rerr != nil {
		report.WriteAPIError(w, rerr.Status, rerr.Code, rerr.Message)
		return
	}
	// Trace context is advisory: malformed, missing, or foreign-version
	// traceparent headers are silently ignored, never an error.
	incoming, hasTP := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	if hasTP {
		req.Trace = incoming
	}
	resp := e.Submit(r.Context(), req)
	// Echo trace context back: the engine's root when this request was
	// sampled (so the caller can find the server-side spans), otherwise
	// the caller's own context, preserved round-trip.
	if resp.Trace.Valid() {
		w.Header().Set(obs.TraceparentHeader, resp.Trace.Traceparent())
	} else if hasTP {
		w.Header().Set(obs.TraceparentHeader, incoming.Traceparent())
	}
	if resp.Err != nil {
		status, code := http.StatusServiceUnavailable, "draining"
		switch {
		case errors.Is(resp.Err, context.DeadlineExceeded):
			status, code = http.StatusGatewayTimeout, "deadline_exceeded"
		case errors.Is(resp.Err, context.Canceled):
			status, code = http.StatusServiceUnavailable, "canceled"
		case errors.Is(resp.Err, ErrInvalid):
			status, code = http.StatusBadRequest, "invalid_request"
		}
		report.WriteAPIError(w, status, code, resp.Err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(wireGenerateResponse{
		ID:        resp.ID,
		Text:      resp.Text,
		Tokens:    resp.Tokens,
		Steps:     resp.Steps,
		LatencyMS: float64(resp.Latency) / float64(time.Millisecond),
		Injected:  resp.Injected,
		Fired:     resp.Fired,
		Site:      resp.Site,
		Surface:   resp.Surface,
		Outcome:   resp.Outcome,
		Detected:  resp.Detected,
	})
}

// handleHealthz reports liveness and load.
func (e *Engine) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{
		"status":    "ok",
		"in_flight": e.met.Snapshot().InFlight,
	})
}
