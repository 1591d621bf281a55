package main

import (
	"bytes"
	"testing"

	"kiff"
)

// tinyFixture is a small fixture of the workload's preset.
func tinyFixture(t *testing.T, w Workload) *kiff.Dataset {
	t.Helper()
	scale := 0.02
	if w.Preset == "gowalla" {
		scale = 0.005
	}
	ds, err := kiff.GeneratePreset(w.Preset, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func streamBytes(ops []Op) []byte {
	var b bytes.Buffer
	for _, op := range ops {
		b.Write(op.Req)
	}
	return b.Bytes()
}

func TestOpStreamIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			ds := tinyFixture(t, w)
			a := streamBytes(generateOps(w, ds, 7, 3000))
			b := streamBytes(generateOps(w, ds, 7, 3000))
			if !bytes.Equal(a, b) {
				t.Fatal("same workload and seed gave different streams")
			}
			if c := streamBytes(generateOps(w, ds, 8, 3000)); bytes.Equal(a, c) {
				t.Fatal("seeds 7 and 8 gave the same stream")
			}
			if p := streamBytes(generateOps(w, ds, 7, 1000)); !bytes.HasPrefix(a, p) {
				t.Fatal("a shorter stream is not a prefix of a longer one")
			}
		})
	}
}

func TestOpStreamFollowsMix(t *testing.T) {
	for _, w := range workloads {
		ds := tinyFixture(t, w)
		var n [numOpKinds]int
		ops := generateOps(w, ds, 1, 20000)
		for _, op := range ops {
			n[op.Kind]++
		}
		for k := opKind(0); k < numOpKinds; k++ {
			got := float64(n[k]) / float64(len(ops))
			if d := got - w.Mix[k]; d > 0.02 || d < -0.02 {
				t.Errorf("%s: %s share %.3f, mix says %.3f", w.Name, k, got, w.Mix[k])
			}
		}
	}
}

func TestRatingPairsAreUniqueAndNew(t *testing.T) {
	w, err := workloadByName("write-wal")
	if err != nil {
		t.Fatal(err)
	}
	ds := tinyFixture(t, w)
	seen := map[[2]uint32]bool{}
	ratings := 0
	for _, op := range generateOps(w, ds, 3, 5000) {
		switch op.Kind {
		case opRating:
			ratings++
			key := [2]uint32{op.User, op.Item}
			if seen[key] {
				t.Fatalf("rating pair %v sent twice", key)
			}
			seen[key] = true
			if ds.User(op.User).Contains(op.Item) || ds.User(op.User).Len() > maxProfileItems {
				t.Fatalf("rating pair %v already in the fixture profile, or the user is over the cap", key)
			}
			if int(op.Item) >= ds.NumItems() || op.Rating < 1 || op.Rating > 8 {
				t.Fatalf("rating %v out of range", op)
			}
		case opInsert, opQueryUsers:
			if err := op.Profile.Validate(); err != nil || op.Profile.Len() == 0 || op.Profile.Len() > maxProfileItems+2 {
				t.Fatalf("%s profile invalid (%v): %v", op.Kind, err, op.Profile)
			}
		}
	}
	if ratings < 1000 {
		t.Fatalf("only %d ratings in 5000 ops", ratings)
	}
}

func TestLadderPlansPhases(t *testing.T) {
	s := ladder([3]float64{100, 200, 400}, 2, 20)
	want := []struct {
		name       string
		start, end float64
		n          int
	}{{"warmup", 0, 2, 400}, {"low", 2, 6, 400}, {"nominal", 6, 18, 2400}, {"high", 18, 22, 1600}}
	if len(s.Phases) != len(want) {
		t.Fatalf("%d phases, want %d", len(s.Phases), len(want))
	}
	for i, w := range want {
		p := s.Phases[i]
		if p.Name != w.name || p.Start != w.start || p.End != w.end || p.Len != w.n || p.Recorded != (i > 0) {
			t.Errorf("phase %d = %+v, want %+v", i, p, w)
		}
		for j := p.First; j < p.First+p.Len; j++ {
			if s.Phase[j] != i || s.Due[j] < p.Start || s.Due[j] >= p.End {
				t.Fatalf("op %d due %v in phase %d, outside %+v", j, s.Due[j], s.Phase[j], p)
			}
		}
	}
	if s.phaseIndex("nominal") != 2 {
		t.Fatal("nominal is not the third phase")
	}
}
