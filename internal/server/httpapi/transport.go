package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"coresetclustering/internal/obs"
	"coresetclustering/internal/server/engine"
)

// This file is the transport kit both kcenterd roles share — the shard daemon
// in this package and internal/server/router: the seven common flags, the
// listen/debug/shutdown lifecycle, the error contract and its writers, and
// strict request-body decoding. The request middleware and the /metrics
// exposition live in obs.go, the ingest decode front end in wire.go.

// defaultMaxBody is the default bound on every request body (batches and
// sketches alike); -max-body overrides it.
const defaultMaxBody = 64 << 20

// Common is the part of a role's configuration the kit consumes, parsed from
// the seven flags both roles register (RegisterFlags). Zero values select the
// defaults (WithDefaults), so in-process servers built by tests set only what
// they exercise.
type Common struct {
	Addr        string        // listen address
	DebugAddr   string        // pprof, expvar and /debug/traces listener ("" = none)
	LogLevel    slog.Level    // -log-level, read by the roles' Run
	MaxBody     int64         // request-body cap in bytes (0 = 64 MiB)
	SlowRequest time.Duration // slow-request log threshold (0 = disabled)
	TraceSample int           // head-sample 1 in N requests (0 = 16)
	TraceBuffer int           // completed traces retained (0 = 256, <0 = tracing off)
}

// WithDefaults returns c with every zero field set to its default.
func (c Common) WithDefaults() Common {
	if c.MaxBody <= 0 {
		c.MaxBody = defaultMaxBody
	}
	if c.TraceSample <= 0 {
		c.TraceSample = 16
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 256 // negative = tracing disabled (NewTracer returns nil)
	}
	return c
}

// RegisterFlags registers the seven flags both roles share on fs, each with
// one name, default and usage text, and returns the function that validates
// them after fs.Parse.
func RegisterFlags(fs *flag.FlagSet) func() (Common, error) {
	var (
		c     Common
		level string
	)
	fs.StringVar(&c.Addr, "addr", ":8080", "listen address")
	fs.Int64Var(&c.MaxBody, "max-body", defaultMaxBody, "request body size cap in bytes")
	fs.StringVar(&level, "log-level", "info", "log verbosity: debug, info, warn or error")
	fs.DurationVar(&c.SlowRequest, "slow-request", time.Second, "log requests slower than this at warn level (0 disables)")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "separate listen address for pprof, expvar and /debug/traces (empty = disabled)")
	fs.IntVar(&c.TraceSample, "trace-sample", 16, "head-sample 1 in N requests for tracing (slow and errored requests are always captured)")
	fs.IntVar(&c.TraceBuffer, "trace-buffer", 256, "completed traces retained for /debug/traces (0 disables tracing)")
	return func() (Common, error) {
		out := c
		switch strings.ToLower(level) {
		case "debug":
			out.LogLevel = slog.LevelDebug
		case "info":
			out.LogLevel = slog.LevelInfo
		case "warn", "warning":
			out.LogLevel = slog.LevelWarn
		case "error":
			out.LogLevel = slog.LevelError
		default:
			return Common{}, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
		}
		switch {
		case out.MaxBody <= 0:
			return Common{}, fmt.Errorf("-max-body must be positive, got %d", out.MaxBody)
		case out.SlowRequest < 0:
			return Common{}, fmt.Errorf("-slow-request must be non-negative, got %v", out.SlowRequest)
		case out.TraceSample < 1:
			return Common{}, fmt.Errorf("-trace-sample must be at least 1, got %d", out.TraceSample)
		case out.TraceBuffer < 0:
			return Common{}, fmt.Errorf("-trace-buffer must be non-negative, got %d", out.TraceBuffer)
		case out.TraceBuffer == 0:
			out.TraceBuffer = -1 // flag 0 means "disabled"; Common's 0 means "default"
		}
		return out, nil
	}
}

// Serve runs a role until ctx is cancelled or SIGINT/SIGTERM arrives: h on
// c.Addr and, when c.DebugAddr is set, the debug surface (pprof, expvar and
// /debug/traces over t) on its own listener, so profiling endpoints and trace
// data are never reachable through the ingest port. On the way out both are
// shut down gracefully, draining in-flight requests for up to 10 s. msg and
// kv make the "listening" log line.
func Serve(ctx context.Context, c Common, h http.Handler, t *obs.Tracer, log *slog.Logger, msg string, kv ...any) error {
	ln, err := net.Listen("tcp", c.Addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}

	var debugSrv *http.Server
	if c.DebugAddr != "" {
		dln, err := net.Listen("tcp", c.DebugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("-debug-addr: %w", err)
		}
		debugSrv = &http.Server{Handler: debugRoutes(t), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("debug server", "err", err)
			}
		}()
		log.Info("debug server listening", "addr", dln.Addr())
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Info(msg, append([]any{"addr", ln.Addr()}, kv...)...)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if debugSrv != nil {
		if err := debugSrv.Shutdown(shutdownCtx); err != nil {
			log.Error("debug server shutdown", "err", err)
		}
	}
	return srv.Shutdown(shutdownCtx)
}

// codeStatus is the error contract of both roles: every stable
// machine-readable code maps to exactly one HTTP status. The golden handler
// tests assert this table against live responses, so a refactor cannot
// silently move a code.
var codeStatus = map[string]int{
	engine.CodeInvalidJSON:       http.StatusBadRequest,
	engine.CodeEmptyBatch:        http.StatusBadRequest,
	engine.CodeInvalidPoint:      http.StatusBadRequest,
	engine.CodeDimensionMismatch: http.StatusBadRequest,
	engine.CodeInvalidParam:      http.StatusBadRequest,
	engine.CodeInvalidTimestamps: http.StatusBadRequest,
	engine.CodeNotWindowed:       http.StatusBadRequest,
	engine.CodeBadSketch:         http.StatusBadRequest,
	engine.CodeInvalidFrame:      http.StatusBadRequest,
	engine.CodeUnknownStream:     http.StatusNotFound,
	engine.CodeStreamGone:        http.StatusConflict,
	engine.CodeEmptyStream:       http.StatusConflict,
	engine.CodeBodyTooLarge:      http.StatusRequestEntityTooLarge,
	engine.CodeUnsupportedMedia:  http.StatusUnsupportedMediaType,
	engine.CodeStreamFailed:      http.StatusInternalServerError,
	engine.CodeInternal:          http.StatusInternalServerError,
	engine.CodeShardIncompatible: http.StatusBadGateway,
	engine.CodeShardUnavailable:  http.StatusBadGateway,
}

func statusForCode(code string) int {
	if s, ok := codeStatus[code]; ok {
		return s
	}
	return http.StatusInternalServerError
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorResponse is the uniform error body: a human-readable message plus a
// stable machine-readable code clients can branch on.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Error writes the uniform error body with the given status.
func Error(w http.ResponseWriter, status int, code string, err error) {
	WriteJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}

// EngineError writes a typed engine error as the uniform error body, mapping
// its stable code through the status table.
func EngineError(w http.ResponseWriter, err error) {
	code := engine.CodeOf(err)
	Error(w, statusForCode(code), code, err)
}

// maxPresize bounds how much of a declared Content-Length readBody reserves
// before reading: the header is the client's word, -max-body is enforced only
// as bytes arrive.
const maxPresize = 1 << 20

// readBody reads the whole request body into buf. It is the one place the
// transport maps http.MaxBytesError: a body over -max-body answers 413
// body_too_large wherever it overflows, and any other read failure answers
// 400 with code. It writes the error response itself and reports success.
func readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, code string) bool {
	buf.Reset()
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPresize)))
	}
	_, err := buf.ReadFrom(r.Body)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		Error(w, http.StatusRequestEntityTooLarge, engine.CodeBodyTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
	default:
		Error(w, http.StatusBadRequest, code, fmt.Errorf("reading request body: %w", err))
	}
	return false
}

// decodeStrict decodes data as exactly one JSON document into v: unknown
// fields and trailing data are 400 invalid_json. It writes the error response
// itself and reports success.
func decodeStrict(w http.ResponseWriter, data []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		Error(w, http.StatusBadRequest, engine.CodeInvalidJSON, fmt.Errorf("invalid JSON body: %w", err))
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		Error(w, http.StatusBadRequest, engine.CodeInvalidJSON, errors.New("trailing data after JSON body"))
		return false
	}
	return true
}

// DecodeJSON reads a request body and strictly decodes it into v, writing
// any error response itself; it reports success.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	var body bytes.Buffer
	return readBody(w, r, &body, engine.CodeInvalidJSON) && decodeStrict(w, body.Bytes(), v)
}
