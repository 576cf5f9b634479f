package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedLogger returns a logger with a deterministic clock writing into buf.
func fixedLogger(buf *strings.Builder, level Level) *Logger {
	l := NewLogger(buf, level)
	l.s.now = func() time.Time { return time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC) }
	return l
}

func TestLogFormat(t *testing.T) {
	var buf strings.Builder
	l := fixedLogger(&buf, LevelInfo)
	l.Info("listening", "addr", ":8080", "k", 20)
	want := "ts=2026-08-07T12:00:00.000000Z level=info msg=listening addr=:8080 k=20\n"
	if got := buf.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestLogQuoting(t *testing.T) {
	var buf strings.Builder
	l := fixedLogger(&buf, LevelDebug)
	l.Warn("slow request", "path", "/streams/a b", "err", errors.New(`boom="x"`), "empty", "")
	got := buf.String()
	for _, want := range []string{
		`msg="slow request"`,
		`path="/streams/a b"`,
		`err="boom=\"x\""`,
		`empty=""`,
		"level=warn",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("line %q missing %q", got, want)
		}
	}
}

func TestLogLevels(t *testing.T) {
	var buf strings.Builder
	l := fixedLogger(&buf, LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	got := buf.String()
	if strings.Contains(got, "msg=d") || strings.Contains(got, "msg=i") {
		t.Fatalf("below-level messages leaked: %q", got)
	}
	if !strings.Contains(got, "msg=w") || !strings.Contains(got, "msg=e") {
		t.Fatalf("at-level messages dropped: %q", got)
	}
	if l.Enabled(LevelInfo) {
		t.Fatal("info must be disabled at level warn")
	}
}

func TestLogWith(t *testing.T) {
	var buf strings.Builder
	l := fixedLogger(&buf, LevelInfo)
	child := l.With("requestId", "abc123")
	child.Info("handled", "status", 200)
	got := buf.String()
	if !strings.Contains(got, "requestId=abc123") || !strings.Contains(got, "status=200") {
		t.Fatalf("bound fields missing: %q", got)
	}
	buf.Reset()
	l.Info("plain")
	if strings.Contains(buf.String(), "requestId") {
		t.Fatalf("parent logger must not inherit child fields: %q", buf.String())
	}
}

func TestLogBadKV(t *testing.T) {
	var buf strings.Builder
	l := fixedLogger(&buf, LevelInfo)
	l.Info("odd", "dangling")
	if !strings.Contains(buf.String(), "!BADKEY=dangling") {
		t.Fatalf("odd kv must be flagged: %q", buf.String())
	}
	buf.Reset()
	l.Info("weird", "bad key\n", 1)
	if !strings.Contains(buf.String(), "bad_key_=1") {
		t.Fatalf("keys must be sanitised to bare words: %q", buf.String())
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x")
	l.Warn("x")
	l.Error("x")
	if l.With("a", 1) != nil {
		t.Fatal("With on nil must return nil")
	}
	if l.Enabled(LevelError) {
		t.Fatal("nil logger is never enabled")
	}
}

func TestLogConcurrent(t *testing.T) {
	var buf strings.Builder
	l := fixedLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Info("m", "worker", i, "j", j)
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 800 {
		t.Fatalf("%d lines, want 800", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ts=") || !strings.Contains(line, "msg=m") {
			t.Fatalf("interleaved line: %q", line)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "INFO": LevelInfo,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel must reject unknown levels")
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatal("request IDs must be unique")
	}
	if len(a) != 16 {
		t.Fatalf("request ID %q, want 16 hex chars", a)
	}
}
