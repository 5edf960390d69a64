package pipeline

import (
	"testing"
	"time"
)

func TestBucketIndexBoundaries(t *testing.T) {
	tests := []struct {
		name string
		d    time.Duration
		want int
	}{
		{"zero lands in the first bucket", 0, 0},
		{"below first bound", 9 * time.Microsecond, 0},
		{"exact first bound is inclusive", 10 * time.Microsecond, 0},
		{"just past first bound", 10*time.Microsecond + 1, 1},
		{"exact second bound", 100 * time.Microsecond, 1},
		{"exact 1ms bound", time.Millisecond, 2},
		{"exact 10ms bound", 10 * time.Millisecond, 3},
		{"exact last bound", 100 * time.Millisecond, 4},
		{"just past last bound overflows", 100*time.Millisecond + 1, NumBuckets - 1},
		{"effectively +Inf overflows", time.Hour, NumBuckets - 1},
		{"negative clamps to first bucket", -time.Second, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := BucketIndex(tt.d); got != tt.want {
				t.Errorf("BucketIndex(%v) = %d, want %d", tt.d, got, tt.want)
			}
		})
	}
}

func TestBucketIndexAlwaysInRange(t *testing.T) {
	for _, d := range []time.Duration{0, 1, time.Nanosecond, time.Microsecond,
		time.Millisecond, time.Second, time.Hour, -1} {
		if i := BucketIndex(d); i < 0 || i >= NumBuckets {
			t.Errorf("BucketIndex(%v) = %d out of [0, %d)", d, i, NumBuckets)
		}
	}
}

func TestBucketBoundMatchesIndex(t *testing.T) {
	// Every non-overflow bucket's bound must map back into that bucket.
	for i := 0; i < NumBuckets-1; i++ {
		bound := BucketBound(i)
		if bound < 0 {
			t.Fatalf("bucket %d has no bound", i)
		}
		if got := BucketIndex(bound); got != i {
			t.Errorf("BucketIndex(BucketBound(%d)=%v) = %d", i, bound, got)
		}
		if got := BucketIndex(bound + 1); got != i+1 {
			t.Errorf("BucketIndex(bound+1) = %d, want %d", got, i+1)
		}
	}
	if BucketBound(NumBuckets-1) >= 0 {
		t.Error("overflow bucket must report a negative bound")
	}
	if BucketBound(-1) >= 0 || BucketBound(NumBuckets) >= 0 {
		t.Error("out-of-range buckets must report a negative bound")
	}
	if len(BucketLabels()) != NumBuckets {
		t.Errorf("BucketLabels() has %d entries, want %d", len(BucketLabels()), NumBuckets)
	}
}

// TestStatsAdd pins Add as a per-stage sum whose identity is the zero
// Stats, with stage names taken from whichever side has them.
func TestStatsAdd(t *testing.T) {
	a := (*Cache)(nil).Stats()
	a.Stages[0].Hits, a.Stages[0].Buckets[1], a.Stages[2].BuildTime = 3, 1, time.Millisecond
	b := (*Cache)(nil).Stats()
	b.Stages[0].Hits, b.Stages[0].Misses, b.Stages[1].PersistHits, b.Stages[1].Entries = 4, 2, 5, 6

	sum := a.Add(b)
	if got := sum.Stages[0]; got.Hits != 7 || got.Misses != 2 || got.Buckets[1] != 1 {
		t.Errorf("stage 0 sum = %+v", got)
	}
	if got := sum.Stages[1]; got.PersistHits != 5 || got.Entries != 6 {
		t.Errorf("stage 1 sum = %+v", got)
	}
	if sum.Stages[2].BuildTime != time.Millisecond {
		t.Errorf("build time sum = %v", sum.Stages[2].BuildTime)
	}
	if a.Stages[0].Hits != 3 {
		t.Error("Add mutated its receiver")
	}
	for _, z := range []Stats{(Stats{}).Add(a), a.Add(Stats{})} {
		if len(z.Stages) != len(a.Stages) || z.Stages[0] != a.Stages[0] || z.Stages[2].Stage != a.Stages[2].Stage {
			t.Errorf("zero Stats is not the identity: %+v", z.Stages)
		}
	}
}
