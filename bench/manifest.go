package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is the part of BENCHMARK.json this driver answers to: the workload
// names and the metric names and units (bench/compare reads the bounds).
// Workload sizes and rates are constants in workloads.go, because the
// manifest's keys are fixed.
type manifest struct {
	Workloads []workloadDecl `json:"workloads"`
	EndToEnd  []metricDecl   `json:"end_to_end"`
	PerLayer  []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func (m *manifest) hasWorkload(name string) bool {
	for _, w := range m.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// declares reports whether name is an end-to-end or per-layer metric.
func (m *manifest) declares(name string) bool {
	for _, list := range [][]metricDecl{m.EndToEnd, m.PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

func (m *manifest) workloadNames() []string {
	names := make([]string, len(m.Workloads))
	for i, w := range m.Workloads {
		names[i] = w.Name
	}
	return names
}
