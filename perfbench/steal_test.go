package main

import (
	"slices"
	"testing"
)

func TestCalm(t *testing.T) {
	values := []float64{10, 11, 12, 13, 14, 15, 16, 17}
	for _, tc := range []struct {
		name  string
		steal []float64
		want  []float64
	}{
		{"no steal: every value", []float64{0, 0, 0, 0, 0, 0, 0, 0}, values},
		{"below calmSteal: every value", []float64{0.01, 0, 0.02, 0, 0.01, 0, 0.015, 0}, values},
		{"calmest quarter", []float64{0.3, 0.05, 0.2, 0.04, 0.1, 0.3, 0.2, 0.1}, []float64{11, 13}},
		{"ties with the quarter count", []float64{0.3, 0.05, 0.2, 0.04, 0.05, 0.3, 0.2, 0.1}, []float64{11, 13, 14}},
		{"calm values beside a spell", []float64{0.3, 0, 0.2, 0, 0.01, 0.3, 0.2, 0.1}, []float64{11, 13, 14}},
	} {
		if got := calm(values, tc.steal); !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := calm([]float64{7}, []float64{0.4}); !slices.Equal(got, []float64{7}) {
		t.Errorf("one value: got %v", got)
	}
	if got := calm(values, nil); !slices.Equal(got, values) {
		t.Errorf("no steal shares: got %v", got)
	}
}
