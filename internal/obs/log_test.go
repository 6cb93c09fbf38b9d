package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// logAt hands h one record stamped at a fixed time, so encoded records
// are exact.
func logAt(t *testing.T, h slog.Handler, ctx context.Context, lv slog.Level, msg string, kv ...any) {
	t.Helper()
	r := slog.NewRecord(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC), lv, msg, 0)
	r.Add(kv...)
	if err := h.Handle(ctx, r); err != nil {
		t.Fatal(err)
	}
}

func TestLoggerLogfmtEncoding(t *testing.T) {
	var buf bytes.Buffer
	logAt(t, NewHandler(&buf, slog.LevelDebug, false), nil, slog.LevelInfo, "session created",
		"session", "alpha", "facts", 42, "coverage", 0.625,
		"dur", 150*time.Millisecond, "quoted", "two words", "empty", "", "ok", true)
	got := buf.String()
	want := `ts=2026-08-08T12:00:00Z level=info msg="session created" session=alpha facts=42 coverage=0.625 dur=150ms quoted="two words" empty="" ok=true` + "\n"
	if got != want {
		t.Errorf("logfmt record:\ngot  %q\nwant %q", got, want)
	}
}

func TestLoggerJSONEncoding(t *testing.T) {
	var buf bytes.Buffer
	logAt(t, NewHandler(&buf, slog.LevelDebug, true), nil, slog.LevelError, `escape "this"`,
		"err", errors.New("boom\nline2"), "n", int64(7))
	line := buf.String()
	want := `{"ts":"2026-08-08T12:00:00Z","level":"error","msg":"escape \"this\"","err":"boom\nline2","n":7}` + "\n"
	if line != want {
		t.Errorf("json record:\ngot  %q\nwant %q", line, want)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, line)
	}
	if rec["level"] != "error" || rec["msg"] != `escape "this"` || rec["err"] != "boom\nline2" || rec["n"] != float64(7) {
		t.Errorf("decoded record = %v", rec)
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(NewHandler(&buf, slog.LevelWarn, false))
	l.Debug("nope")
	l.Info("nope")
	l.Warn("yes")
	l.Error("yes")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("records written = %d, want 2:\n%s", got, buf.String())
	}
	ctx := context.Background()
	if l.Enabled(ctx, slog.LevelInfo) || !l.Enabled(ctx, slog.LevelError) {
		t.Error("Enabled disagrees with level filtering")
	}
	buf.Reset()
	off := slog.New(NewHandler(&buf, levelOff, false))
	off.Error("nope")
	if buf.Len() != 0 {
		t.Errorf("levelOff still wrote: %s", buf.String())
	}
}

// TestLoggerOffByDefault: a process that never installs a logger logs
// nothing, -log-level off logs nothing, and installing never touches
// slog.Default() (which would route records to stderr through the log
// package).
func TestLoggerOffByDefault(t *testing.T) {
	ctx := context.Background()
	levels := []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError, slog.LevelError + 100}
	for _, lv := range levels {
		if DefaultLogger().Enabled(ctx, lv) {
			t.Errorf("fresh default logger enabled at %v", lv)
		}
	}
	before := slog.Default()
	var buf bytes.Buffer
	if err := InstallDefaultLogger(&buf, "off", "json"); err != nil {
		t.Fatal(err)
	}
	defer SetDefaultLogger(nil)
	for _, lv := range levels {
		if DefaultLogger().Enabled(ctx, lv) {
			t.Errorf("-log-level off enabled at %v", lv)
		}
	}
	DefaultLogger().Error("nope")
	if err := InstallDefaultLogger(&buf, "debug", "logfmt"); err != nil {
		t.Fatal(err)
	}
	if slog.Default() != before {
		t.Error("InstallDefaultLogger replaced slog.Default()")
	}
	if buf.Len() != 0 {
		t.Errorf("disabled logger wrote: %s", buf.String())
	}
}

func TestLoggerDefaultInstall(t *testing.T) {
	var buf bytes.Buffer
	SetDefaultLogger(slog.New(NewHandler(&buf, slog.LevelInfo, false)))
	defer SetDefaultLogger(nil)
	DefaultLogger().Info("via default")
	if !strings.Contains(buf.String(), "msg="+`"via default"`) {
		t.Errorf("default logger did not receive the record: %q", buf.String())
	}
}

func TestLoggerWithAndContextFields(t *testing.T) {
	var buf bytes.Buffer
	h := NewHandler(&buf, slog.LevelDebug, false).WithAttrs([]slog.Attr{slog.String("component", "serve")})
	ctx := ContextWithLogFields(context.Background(), "request", "000007", "session", "alpha")
	ctx = ContextWithLogFields(ctx, "job", 3)
	logAt(t, h, ctx, slog.LevelInfo, "job started", "cached", false)
	want := `ts=2026-08-08T12:00:00Z level=info msg="job started" request=000007 session=alpha job=3 component=serve cached=false` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("record:\ngot  %q\nwant %q", got, want)
	}
}

func TestLoggerSpanCorrelation(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(NewHandler(&buf, slog.LevelDebug, true))
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), "request")
	ctx, child := tr.StartSpan(ctx, "framework/run")
	l.InfoContext(ctx, "round done")
	child.End()
	root.End()
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["trace"] != FormatTraceID(root.ID()) {
		t.Errorf("trace field = %v, want root id %s", rec["trace"], FormatTraceID(root.ID()))
	}
	if rec["span"] != FormatTraceID(child.ID()) {
		t.Errorf("span field = %v, want current span id %s", rec["span"], FormatTraceID(child.ID()))
	}
	if !strings.Contains(buf.String(), `"msg":"round done","trace":`) {
		t.Errorf("trace must follow msg: %s", buf.String())
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "off": levelOff, "none": levelOff,
	} {
		got, ok := levels[in]
		if !ok || got != want {
			t.Errorf("level %q = %v, %v", in, got, ok)
		}
	}
	if js, ok := formats["json"]; !ok || !js {
		t.Errorf("format json = %v, %v", js, ok)
	}
	if js, ok := formats[""]; !ok || js {
		t.Errorf("format empty = %v, %v", js, ok)
	}
	defer SetDefaultLogger(nil)
	if err := InstallDefaultLogger(&bytes.Buffer{}, "info", "json"); err != nil {
		t.Errorf("InstallDefaultLogger: %v", err)
	}
	if err := InstallDefaultLogger(&bytes.Buffer{}, "verbose", "json"); err == nil {
		t.Error("InstallDefaultLogger should reject unknown levels")
	}
	if err := InstallDefaultLogger(&bytes.Buffer{}, "info", "xml"); err == nil {
		t.Error("InstallDefaultLogger should reject unknown formats")
	}
}
