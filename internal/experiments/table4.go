package experiments

import (
	"bytes"
	"runtime"
	"time"

	"kiff/internal/dataset"
)

// Table4Row quantifies the overhead of building item profiles while the
// dataset streams in (Table IV): the wall time of user-profile-only
// loading, of combined user+item loading, their difference Δ, and Δ as a
// fraction of KIFF's total time.
type Table4Row struct {
	Dataset     string
	UPOnly      time.Duration
	UPAndIP     time.Duration
	Delta       time.Duration
	TotalKIFF   time.Duration
	DeltaOfTime float64
}

// Table4Result reproduces Table IV.
type Table4Result struct {
	Rows []Table4Row
}

// loadReps is how many times Table4 times each loading variant. The two
// variants alternate and each keeps its fastest run: a scheduler stall
// or a collection landing in one run only ever adds time, so the minimum
// estimates the parsing work itself. At the small test scales a load
// can take under a millisecond, and a single stall in one variant would
// otherwise swamp Δ.
const loadReps = 5

// Table4 serializes each dataset to an in-memory edge stream and parses it
// back two ways — building only user profiles, and also reversing the
// edges into item profiles — mirroring how KIFF piggybacks item-profile
// construction on data loading (Algorithm 1 lines 1–2). Each variant is
// timed loadReps times, alternately, and reported by its fastest run.
func (h *Harness) Table4() (*Table4Result, error) {
	res := &Table4Result{}
	h.printf("Table IV — overhead of item profile construction\n")
	h.rule()
	h.printf("%-12s %12s %14s %10s %12s\n", "dataset", "(UP) load", "(UP)&(IP) load", "Δ", "% total")
	for _, p := range dataset.Presets {
		d, err := h.Dataset(p)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := dataset.Write(&buf, d); err != nil {
			return nil, err
		}
		stream := buf.Bytes()

		var upOnly, upAndIP time.Duration
		for r := 0; r < loadReps; r++ {
			t, err := timeLoad(stream, dataset.LoadOptions{Name: d.Name})
			if err != nil {
				return nil, err
			}
			if r == 0 || t < upOnly {
				upOnly = t
			}
			t, err = timeLoad(stream, dataset.LoadOptions{Name: d.Name, BuildItemProfiles: true})
			if err != nil {
				return nil, err
			}
			if r == 0 || t < upAndIP {
				upAndIP = t
			}
		}

		kf, err := h.DefaultRun("kiff", d, h.K(p.DefaultK()))
		if err != nil {
			return nil, err
		}
		row := Table4Row{
			Dataset:   d.Name,
			UPOnly:    upOnly,
			UPAndIP:   upAndIP,
			Delta:     upAndIP - upOnly,
			TotalKIFF: kf.WallTime + upAndIP,
		}
		if row.Delta < 0 {
			row.Delta = 0
		}
		if row.TotalKIFF > 0 {
			row.DeltaOfTime = row.Delta.Seconds() / row.TotalKIFF.Seconds()
		}
		res.Rows = append(res.Rows, row)
		h.printf("%-12s %12s %14s %10s %11.1f%%\n",
			row.Dataset, seconds(row.UPOnly), seconds(row.UPAndIP), seconds(row.Delta), 100*row.DeltaOfTime)
	}
	h.rule()
	h.printf("(paper: item-profile overhead ≤ 1.9%% of KIFF's total time)\n\n")
	return res, nil
}

// timeLoad parses stream once and returns the wall time. It starts from
// a freshly collected heap, so the garbage of the previous load is not
// collected on this one's clock.
func timeLoad(stream []byte, opts dataset.LoadOptions) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	_, err := dataset.Load(bytes.NewReader(stream), opts)
	return time.Since(t0), err
}
