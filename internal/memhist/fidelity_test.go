package memhist

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"numaperf/internal/exec"
	"numaperf/internal/topology"
	"numaperf/internal/workloads"
)

// fig10Engine mirrors the engine configuration of the numabench Fig. 10
// experiments (small scheduling chunks so rotation is finer than the
// slice) — the equivalence below is exactly the property the Fig. 10
// metric goldens rely on.
func fig10Engine(t *testing.T) *exec.Engine {
	t.Helper()
	e, err := exec.NewEngine(exec.Config{
		Machine: topology.TwoSocket(),
		Threads: 2,
		Seed:    7,
		Chunk:   256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAdaptiveMatchesFixedWithoutFaults pins the zero-fault guarantee
// of the adaptive cycler: with nothing starving any threshold, the
// repair queue stays empty and the schedule — and therefore every
// count, annotation and rendered byte — is identical to the paper's
// fixed 100 Hz rotation.
func TestAdaptiveMatchesFixedWithoutFaults(t *testing.T) {
	bodies := map[string]func(*exec.Thread){
		"mlc-local":  workloads.MLC{BufferBytes: 2 << 20, Chases: 20_000}.Body(),
		"mlc-remote": workloads.MLC{BufferBytes: 2 << 20, Chases: 20_000, Remote: true}.Body(),
	}
	for name, body := range bodies {
		fixed, err := Collect(fig10Engine(t), body, Options{SliceCycles: 200_000, Reps: 2})
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := Collect(fig10Engine(t), body, Options{SliceCycles: 200_000, Reps: 2, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fixed.Counts, adaptive.Counts) {
			t.Errorf("%s: adaptive counts diverge from fixed cycler:\n%v\n%v", name, fixed.Counts, adaptive.Counts)
		}
		if !reflect.DeepEqual(fixed.Quality, adaptive.Quality) {
			t.Errorf("%s: adaptive quality report diverges:\n%+v\n%+v", name, fixed.Quality, adaptive.Quality)
		}
		if !reflect.DeepEqual(fixed.Confidence, adaptive.Confidence) {
			t.Errorf("%s: adaptive confidence diverges", name)
		}
		for _, mode := range []Mode{Occurrences, Costs} {
			if f, a := fixed.Render(mode, 56), adaptive.Render(mode, 56); f != a {
				t.Errorf("%s: %s render not byte-identical:\n--- fixed\n%s--- adaptive\n%s", name, mode, f, a)
			}
		}
	}
}

func TestValidateBounds(t *testing.T) {
	cases := []struct {
		name   string
		bounds []uint64
		ok     bool
	}{
		{"nil", nil, false},
		{"single", []uint64{8}, false},
		{"zero first", []uint64{0, 8}, false},
		{"duplicate", []uint64{4, 8, 8, 16}, false},
		{"descending", []uint64{4, 16, 8}, false},
		{"valid pair", []uint64{4, 8}, true},
		{"defaults", DefaultBounds, true},
	}
	for _, tc := range cases {
		err := ValidateBounds(tc.bounds)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: want error", tc.name)
			} else if !errors.Is(err, ErrBadBounds) {
				t.Errorf("%s: error %v does not unwrap to ErrBadBounds", tc.name, err)
			}
		}
	}
}

// TestDefaultBoundsMonotonic guards the package's own default against
// regressions: every invariant ValidateBounds enforces on user input
// must hold for DefaultBounds too.
func TestDefaultBoundsMonotonic(t *testing.T) {
	if err := ValidateBounds(DefaultBounds); err != nil {
		t.Fatalf("DefaultBounds invalid: %v", err)
	}
	for i := 1; i < len(DefaultBounds); i++ {
		if DefaultBounds[i] <= DefaultBounds[i-1] {
			t.Fatalf("DefaultBounds[%d]=%d not above DefaultBounds[%d]=%d",
				i, DefaultBounds[i], i-1, DefaultBounds[i-1])
		}
	}
}

func TestCollectRejectsBadBounds(t *testing.T) {
	e := fig10Engine(t)
	body := workloads.MLC{BufferBytes: 1 << 20, Chases: 100}.Body()
	if _, err := Collect(e, body, Options{Bounds: []uint64{16, 8}}); !errors.Is(err, ErrBadBounds) {
		t.Errorf("Collect with unsorted bounds: err = %v, want ErrBadBounds", err)
	}
	if _, err := Exact(e, body, []uint64{4, 4}, 1); !errors.Is(err, ErrBadBounds) {
		t.Errorf("Exact with duplicate bounds: err = %v, want ErrBadBounds", err)
	}
}

func TestRequestValidateRejectsBadBounds(t *testing.T) {
	req := ProbeRequest{Workload: "mlc-local", Bounds: []uint64{0, 8}}
	err := req.Validate()
	if !errors.Is(err, ErrBadRequest) {
		t.Errorf("err = %v, want ErrBadRequest", err)
	}
	if !errors.Is(err, ErrBadBounds) {
		t.Errorf("err = %v, want ErrBadBounds too", err)
	}
	if n := strings.Count(err.Error(), "memhist:"); n != 1 {
		t.Errorf("err = %q carries the package prefix %d times, want once", err, n)
	}
}

func TestClampedMass(t *testing.T) {
	h := newHistogram([]uint64{4, 8, 16, 32})
	h.Counts = []float64{10, -5, 5, 0}
	abs, share := h.ClampedMass()
	if abs != 5 {
		t.Errorf("abs = %v, want 5", abs)
	}
	if share != 0.25 {
		t.Errorf("share = %v, want 0.25 (5 of 20 absolute mass)", share)
	}

	clean := newHistogram([]uint64{4, 8})
	clean.Counts = []float64{3, 4}
	if abs, share := clean.ClampedMass(); abs != 0 || share != 0 {
		t.Errorf("clean histogram: abs %v share %v, want zeros", abs, share)
	}

	empty := newHistogram([]uint64{4, 8})
	if abs, share := empty.ClampedMass(); abs != 0 || share != 0 {
		t.Errorf("empty histogram: abs %v share %v, want zeros (no division by zero)", abs, share)
	}
}

// TestRenderDisclosesClampedMass pins where the clamped-mass footer
// appears: cost mode (where clamping actually alters the display) shows
// it; occurrence mode shows the raw negative bars and stays footerless.
func TestRenderDisclosesClampedMass(t *testing.T) {
	h := newHistogram([]uint64{4, 8, 16})
	h.Counts = []float64{10, -5, 5}
	cost := h.Render(Costs, 40)
	if !strings.Contains(cost, "clamped negative mass") {
		t.Errorf("cost render lacks the clamped-mass footer:\n%s", cost)
	}
	occ := h.Render(Occurrences, 40)
	if strings.Contains(occ, "clamped") {
		t.Errorf("occurrence render must not mention clamping:\n%s", occ)
	}
}
