package main

import (
	"strings"
	"testing"
)

// TestExperimentsSmoke runs the cheap experiments end to end at a tiny
// scale, verifying the harness plumbing (env caching, dataset reuse, table
// rendering) without the cost of the full evaluation.
func TestExperimentsSmoke(t *testing.T) {
	e := newEnv(t.TempDir(), 0.02)
	for _, name := range []string{"tab2", "tab5", "stream"} {
		found := false
		for _, x := range experiments() {
			if x.name == name {
				found = true
				if err := x.run(e); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		if !found {
			t.Fatalf("experiment %s not registered", name)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, x := range experiments() {
		if x.name == "" || x.about == "" || x.run == nil {
			t.Errorf("malformed experiment %+v", x)
		}
		if seen[x.name] {
			t.Errorf("duplicate experiment %q", x.name)
		}
		seen[x.name] = true
	}
	for _, want := range []string{"tab2", "fig5", "fig6", "fig7", "fig8", "tab3",
		"fig9", "sort", "tab4", "tab5", "tab6", "tab7", "tab8", "purity", "ablate",
		"exchange", "extsort", "artifact", "serve", "stream", "calib"} {
		if !seen[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
}

// TestAblationConfigsValidate builds every ablation row's configuration
// and checks that it validates and sets what its name claims.
func TestAblationConfigsValidate(t *testing.T) {
	e := newEnv(t.TempDir(), 0.02)
	idx, _, err := e.index("MM", 27)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ablationVariants() {
		cfg := v.config(idx)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", v.name, err)
		}
		switch {
		case strings.HasPrefix(v.name, "dense MergeCC"):
			if cfg.SparseDeltaMerge || cfg.SparseMerge {
				t.Errorf("%s: runs a sparse merge (delta=%v one-shot=%v)", v.name, cfg.SparseDeltaMerge, cfg.SparseMerge)
			}
		case strings.HasPrefix(v.name, "sparse MergeCC"):
			if cfg.SparseDeltaMerge || !cfg.SparseMerge {
				t.Errorf("%s: not the one-shot sparse merge (delta=%v one-shot=%v)", v.name, cfg.SparseDeltaMerge, cfg.SparseMerge)
			}
		}
	}
}
