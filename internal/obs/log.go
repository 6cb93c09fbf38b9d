package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// levelOff is above every level the pipeline logs at: a handler at
// levelOff writes nothing.
const levelOff = slog.Level(math.MaxInt)

// levels and formats hold the values every binary's -log-level and
// -log-format flags accept; a format maps to whether it is JSON.
var (
	levels = map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn, "warning": slog.LevelWarn,
		"error": slog.LevelError, "off": levelOff, "none": levelOff,
	}
	formats = map[string]bool{"logfmt": false, "": false, "json": true}
)

// NewHandler returns a handler writing records at or above level to w,
// as one JSON object per line when json is set and as logfmt otherwise.
// Each record is one line with a fixed, deterministic field order:
//
//	ts, level, msg, [trace, span], context fields, With fields, call fields
//
// trace and span attach whenever the context carries an obs.Span, and
// request/job/session IDs travel the same way via ContextWithLogFields,
// so every line written under one request correlates with its spans
// without threading IDs through call signatures. Safe for concurrent
// use; a nil context is tolerated.
func NewHandler(w io.Writer, level slog.Leveler, json bool) slog.Handler {
	opts := &slog.HandlerOptions{Level: level, ReplaceAttr: replaceAttr}
	if json {
		return &ctxHandler{Handler: slog.NewJSONHandler(w, opts)}
	}
	return &ctxHandler{Handler: slog.NewTextHandler(w, opts)}
}

// replaceAttr renames time to ts, lowercases the level, and writes
// times (UTC, RFC 3339 with nanoseconds) and durations (Go syntax) as
// strings in both encodings.
func replaceAttr(groups []string, a slog.Attr) slog.Attr {
	switch a.Value.Kind() {
	case slog.KindTime:
		a.Value = slog.StringValue(a.Value.Time().UTC().Format(time.RFC3339Nano))
	case slog.KindDuration:
		a.Value = slog.StringValue(a.Value.Duration().String())
	}
	if len(groups) == 0 && a.Key == slog.TimeKey {
		a.Key = "ts"
	} else if len(groups) == 0 && a.Key == slog.LevelKey {
		a.Value = slog.StringValue(strings.ToLower(a.Value.String()))
	}
	return a
}

// ctxHandler adds the context's correlation fields to each record.
// With attributes are held back so they follow the context fields.
type ctxHandler struct {
	slog.Handler
	bound []slog.Attr
}

func (h *ctxHandler) Handle(ctx context.Context, r slog.Record) error {
	out := slog.NewRecord(r.Time, r.Level, r.Message, r.PC)
	if ctx != nil {
		if s := SpanFromContext(ctx); s != nil {
			out.AddAttrs(slog.String("trace", FormatTraceID(s.TraceID())), slog.String("span", FormatTraceID(s.ID())))
		}
		fields, _ := ctx.Value(logFieldsKey{}).([]slog.Attr)
		out.AddAttrs(fields...)
	}
	out.AddAttrs(h.bound...)
	r.Attrs(func(a slog.Attr) bool { out.AddAttrs(a); return true })
	return h.Handler.Handle(ctx, out)
}

func (h *ctxHandler) WithAttrs(as []slog.Attr) slog.Handler {
	return &ctxHandler{Handler: h.Handler, bound: append(h.bound[:len(h.bound):len(h.bound)], as...)}
}

// WithGroup commits the held-back attributes first, so they stay
// outside the group; the context fields of later records land inside.
func (h *ctxHandler) WithGroup(name string) slog.Handler {
	return &ctxHandler{Handler: h.Handler.WithAttrs(h.bound).WithGroup(name)}
}

type logFieldsKey struct{}

// ContextWithLogFields returns a context carrying the key/value pairs
// (paired as slog.Logger.Log pairs its arguments); every record written
// under it attaches them, after any fields already carried. This is
// how request, job, and session IDs reach each log line of the serving
// path.
func ContextWithLogFields(ctx context.Context, kv ...any) context.Context {
	if len(kv) == 0 {
		return ctx
	}
	prev, _ := ctx.Value(logFieldsKey{}).([]slog.Attr)
	merged := append(prev[:len(prev):len(prev)], slog.Group("", kv...).Value.Group()...)
	return context.WithValue(ctx, logFieldsKey{}, merged)
}

// discardLogger stands in until a binary installs a logger. It is
// deliberately not slog.Default(), which writes to stderr.
var (
	discardLogger = slog.New(NewHandler(io.Discard, levelOff, false))
	defaultLogger atomic.Pointer[slog.Logger]
)

// DefaultLogger returns the process-wide logger the pipeline and
// serving path write through; it discards every record until
// SetDefaultLogger or InstallDefaultLogger installs one.
func DefaultLogger() *slog.Logger {
	if l := defaultLogger.Load(); l != nil {
		return l
	}
	return discardLogger
}

// SetDefaultLogger installs l as the process-wide logger; nil restores
// the discarding default. slog.Default() is never touched.
func SetDefaultLogger(l *slog.Logger) { defaultLogger.Store(l) }

// InstallDefaultLogger parses the -log-level/-log-format flag values
// and installs the resulting logger process-wide.
func InstallDefaultLogger(w io.Writer, level, format string) error {
	lv, ok := levels[level]
	if !ok {
		return fmt.Errorf("unknown log level %q (want debug|info|warn|error|off)", level)
	}
	json, ok := formats[format]
	if !ok {
		return fmt.Errorf("unknown log format %q (want logfmt|json)", format)
	}
	SetDefaultLogger(slog.New(NewHandler(w, lv, json)))
	return nil
}
