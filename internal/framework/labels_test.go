package framework

import "testing"

// TestDepthSpanNameNoAllocs pins the precomputed round span names: a
// round must not format or allocate its span name, and the names keep
// their zero-padded form.
func TestDepthSpanNameNoAllocs(t *testing.T) {
	if got := depthSpanName(3); got != "framework/depth03" {
		t.Fatalf("depthSpanName(3) = %q, want %q", got, "framework/depth03")
	}
	if got := depthSpanName(123); got != "framework/depth123" {
		t.Fatalf("depthSpanName(123) = %q, want %q", got, "framework/depth123")
	}
	var sink string
	if allocs := testing.AllocsPerRun(100, func() {
		for d := 1; d <= 16; d++ {
			sink = depthSpanName(d)
		}
	}); allocs != 0 {
		t.Errorf("depthSpanName allocates %.1f times per sweep, want 0", allocs)
	}
	_ = sink
}
