package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity. Messages below the logger's level are dropped
// before any formatting work happens.
type Level int32

// Severities, in increasing order.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// ParseLevel parses the -log-level flag values "debug", "info", "warn",
// "error".
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// String returns the flag spelling of the level.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("Level(%d)", int32(l))
}

// loggerShared is the state common to a logger and all its With-derived
// children: one writer behind one mutex (lines from concurrent goroutines
// never interleave) and one level, fixed at construction.
type loggerShared struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	now   func() time.Time // test seam; nil = time.Now
}

// Logger emits levelled key=value lines:
//
//	ts=2026-08-07T12:00:00.000000Z level=info msg="listening" addr=:8080
//
// A nil *Logger is valid and drops everything, so library code can log
// unconditionally. With returns a child logger whose bound fields (for
// example a request ID) are appended to every line.
type Logger struct {
	s    *loggerShared
	base string // pre-rendered bound fields, " k=v k=v" or ""
}

// NewLogger returns a logger writing to w at the given level.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{s: &loggerShared{w: w, level: level}}
}

// Enabled reports whether messages at the given level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.s.level
}

// With returns a child logger with the given fields bound to every line,
// rendered once here rather than on every call.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil || len(kv) == 0 {
		return l
	}
	var b strings.Builder
	appendKV(&b, kv)
	return &Logger{s: l.s, base: l.base + b.String()}
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	now := time.Now
	if l.s.now != nil {
		now = l.s.now
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(now().UTC().Format("2006-01-02T15:04:05.000000Z"))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(quoteValue(msg))
	b.WriteString(l.base)
	appendKV(&b, kv)
	b.WriteByte('\n')
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	io.WriteString(l.s.w, b.String())
}

// appendKV renders " key=value" pairs. An odd trailing element is reported
// under the "!BADKEY" key (the slog convention) instead of being dropped
// silently; non-string keys are stringified.
func appendKV(b *strings.Builder, kv []any) {
	for i := 0; i < len(kv); i += 2 {
		var key string
		var val any
		if i+1 < len(kv) {
			if s, ok := kv[i].(string); ok {
				key = s
			} else {
				key = fmt.Sprint(kv[i])
			}
			val = kv[i+1]
		} else {
			key = "!BADKEY"
			val = kv[i]
		}
		b.WriteByte(' ')
		if key == "!BADKEY" {
			b.WriteString(key) // the sentinel is deliberate, not a caller typo
		} else {
			b.WriteString(sanitizeKey(key))
		}
		b.WriteByte('=')
		b.WriteString(quoteValue(stringify(val)))
	}
}

func stringify(v any) string {
	switch t := v.(type) {
	case string:
		return t
	case error:
		return t.Error()
	case time.Duration:
		return t.String()
	case fmt.Stringer:
		return t.String()
	}
	return fmt.Sprint(v)
}

// sanitizeKey keeps keys bare words so the line stays machine-parseable:
// anything outside [A-Za-z0-9_.-] becomes '_', an empty key becomes "_".
func sanitizeKey(k string) string {
	if k == "" {
		return "_"
	}
	clean := true
	for i := 0; i < len(k); i++ {
		if !isKeyByte(k[i]) {
			clean = false
			break
		}
	}
	if clean {
		return k
	}
	b := []byte(k)
	for i := range b {
		if !isKeyByte(b[i]) {
			b[i] = '_'
		}
	}
	return string(b)
}

func isKeyByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '.' || c == '-'
}

// quoteValue quotes a value when it would break the key=value grammar
// (spaces, quotes, '=', control bytes, or empty).
func quoteValue(v string) string {
	if v == "" {
		return `""`
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c <= ' ' || c == '"' || c == '=' || c == 0x7f {
			return strconv.Quote(v)
		}
	}
	return v
}

// reqIDCounter disambiguates fallback request IDs if the system randomness
// source ever fails.
var reqIDCounter atomic.Uint64

// NewRequestID returns a fresh 16-hex-char request ID for the daemon's
// X-Request-ID middleware.
func NewRequestID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// Extremely unlikely; fall back to a process-unique counter so IDs
		// stay distinct even without randomness.
		n := reqIDCounter.Add(1)
		return fmt.Sprintf("fallback-%d-%d", time.Now().UnixNano(), n)
	}
	return hex.EncodeToString(buf[:])
}
