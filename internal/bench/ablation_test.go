package bench

import "testing"

func TestAblationMediationShape(t *testing.T) {
	r := mustRun(t, Ablations, Params{})
	t.Log("\n" + r.String())
	slow := r.Get("mediation slowdown")
	if slow < 4 {
		t.Errorf("mediation slowdown = %.1fx, want substantial (paper: ~10x)", slow)
	}
}
