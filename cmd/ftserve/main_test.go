package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestBuildJobValidation(t *testing.T) {
	cases := []struct {
		name    string
		req     jobRequest
		wantErr string // substring; "" means the build must succeed
	}{
		{"empty request", jobRequest{}, "app name or a synthetic"},
		{"app and synthetic", jobRequest{App: "LU", Synthetic: &syntheticRequest{Layers: 2, Width: 2}}, "not both"},
		{"unknown app", jobRequest{App: "NoSuchKernel"}, "unknown app"},
		{"synthetic zero layers", jobRequest{Synthetic: &syntheticRequest{Layers: 0, Width: 3}}, "layers >= 1"},
		{"count and fraction", jobRequest{App: "LU", Faults: &faultRequest{Count: 2, Fraction: 0.5}}, "mutually exclusive"},
		{"fraction above one", jobRequest{App: "LU", Faults: &faultRequest{Fraction: 1.5}}, "out of range"},
		{"unknown fault point", jobRequest{App: "LU", Faults: &faultRequest{Count: 1, Point: "mid-compute"}}, "mid-compute"},
		{"unknown task type", jobRequest{App: "LU", Faults: &faultRequest{Count: 1, Type: "v9"}}, "unknown task type"},
		{"app with count plan", jobRequest{App: "LU", Faults: &faultRequest{Count: 3, Seed: 7}}, ""},
		{"app with fraction plan", jobRequest{App: "FW", Faults: &faultRequest{Fraction: 0.1, Seed: 7}}, ""},
		{"synthetic with verify", jobRequest{Synthetic: &syntheticRequest{Layers: 3, Width: 4, Seed: 9}, Verify: true}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := buildJob(tc.req)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("buildJob: %v", err)
				}
				if spec.Spec == nil {
					t.Fatalf("buildJob returned a spec without a graph")
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestBuildJobFaultPlanSized checks both plan-sizing modes actually produce
// injections.
func TestBuildJobFaultPlanSized(t *testing.T) {
	count, err := buildJob(jobRequest{App: "LU", Faults: &faultRequest{Count: 3, Seed: 1}})
	if err != nil {
		t.Fatalf("count plan: %v", err)
	}
	if count.Plan == nil || count.Plan.Len() != 3 {
		t.Fatalf("count plan len = %v, want 3", count.Plan)
	}
	frac, err := buildJob(jobRequest{App: "LU", Faults: &faultRequest{Fraction: 0.25, Seed: 1}})
	if err != nil {
		t.Fatalf("fraction plan: %v", err)
	}
	if frac.Plan == nil || frac.Plan.Len() == 0 {
		t.Fatalf("fraction plan is empty")
	}
}

// TestRebuildJobRoundTrip: the journaled payload (request JSON) rebuilds
// into an equivalent JobSpec — the daemon's crash-recovery path.
func TestRebuildJobRoundTrip(t *testing.T) {
	req := jobRequest{App: "LU", N: 96, B: 16, Seed: 4, Verify: true,
		Faults: &faultRequest{Count: 2, Seed: 9}}
	orig, err := buildJob(req)
	if err != nil {
		t.Fatalf("buildJob: %v", err)
	}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	spec, err := rebuildJob(payload)
	if err != nil {
		t.Fatalf("rebuildJob: %v", err)
	}
	if spec.Name != orig.Name {
		t.Fatalf("rebuilt name %q != %q", spec.Name, orig.Name)
	}
	if spec.Plan == nil || spec.Plan.Len() != orig.Plan.Len() {
		t.Fatalf("rebuilt plan drifted: %v vs %v", spec.Plan, orig.Plan)
	}
	if spec.Verify == nil {
		t.Fatalf("rebuilt spec lost its verifier")
	}
	if _, err := rebuildJob([]byte("{broken")); err == nil {
		t.Fatalf("rebuildJob accepted broken payload")
	}
}

// TestRebuildJobIgnoresDroppedKeys: journals written before a request key
// was dropped still hold it, and replay must rebuild the spec those payloads
// describe, not fail the job. The fixture is such a payload: a per-job trace
// ring size, which the vocabulary once had.
func TestRebuildJobIgnoresDroppedKeys(t *testing.T) {
	want, err := buildJob(jobRequest{App: "LU", N: 96, B: 16, Seed: 4, Verify: true,
		Faults: &faultRequest{Count: 2, Seed: 9}, DeadlineMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile("testdata/dropped_key_request.json")
	if err != nil {
		t.Fatal(err)
	}
	strict := json.NewDecoder(bytes.NewReader(body))
	strict.DisallowUnknownFields()
	if strict.Decode(new(jobRequest)) == nil {
		t.Fatal("the fixture holds no key the vocabulary lacks")
	}
	got, err := rebuildJob(body)
	if err != nil {
		t.Fatalf("payload with a dropped key: %v", err)
	}
	if got.Name != want.Name || got.Retention != want.Retention || got.Deadline != want.Deadline ||
		!reflect.DeepEqual(got.Plan, want.Plan) || got.Recovery != want.Recovery || got.Verify == nil {
		t.Fatalf("rebuilt %+v, want %+v", got, want)
	}
}
