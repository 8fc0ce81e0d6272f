package main

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"battsched/internal/experiments"
	"battsched/internal/obs"
)

// TestReplayEqualsRun pins the traced replay to the experiment driver: on
// quick table2 (kibam and stochastic batteries) the replay's artifact must
// equal experiments.Run's byte for byte, its counts must equal the obs.Sim
// deltas around the run, and its behaviour counts must repeat exactly.
func TestReplayEqualsRun(t *testing.T) {
	cases := []struct {
		name string
		spec experiments.Spec
	}{
		{"table2", experiments.Spec{Quick: true, Battery: "kibam", Seed: 7}},
		{"table2", experiments.Spec{Quick: true, Battery: "stochastic", Sets: 2}},
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("%s/%d", c.name, i), func(t *testing.T) {
			before := obs.Sim.Snapshot()
			ref, err := experiments.Run(context.Background(), c.name, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			delta := obs.Sim.Snapshot().Sub(before)
			var want bytes.Buffer
			if err := experiments.WriteArtifact(&want, []*experiments.Report{ref}); err != nil {
				t.Fatal(err)
			}
			got, err := replay(NewTracer(), "test", c.name, c.spec, ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Artifact, want.Bytes()) {
				t.Fatalf("replay artifact differs from experiments.Run:\n%s\nwant:\n%s", got.Artifact, want.Bytes())
			}
			if err := crossCheck(got.Counts, delta); err != nil {
				t.Fatal(err)
			}
			again, err := replay(nil, "", c.name, c.spec, ref)
			if err != nil {
				t.Fatal(err)
			}
			a, b := got.Counts, again.Counts
			a.CoreAllocs, b.CoreAllocs = 0, 0
			if a != b {
				t.Fatalf("replay counts do not repeat: %+v vs %+v", a, b)
			}
		})
	}
}
