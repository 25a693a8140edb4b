package experiments

import (
	"fmt"
	"strings"

	"github.com/asyncfl/asyncfilter/internal/attack"
	"github.com/asyncfl/asyncfilter/internal/cluster"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/sim"
	"github.com/asyncfl/asyncfilter/internal/stats"
	"github.com/asyncfl/asyncfilter/internal/tsne"
)

// EmbeddingPoint is one local update in the 2-D t-SNE embedding of
// Figures 3-4.
type EmbeddingPoint struct {
	// X, Y are the embedding coordinates.
	X, Y float64
	// Staleness is the update's staleness level (the figures' color key).
	Staleness int
	// ClientID identifies the reporting client.
	ClientID int
}

// EmbeddingResult reproduces one of the paper's t-SNE figures.
type EmbeddingResult struct {
	// ID is "fig3" (IID) or "fig4" (non-IID).
	ID string
	// Title describes the setting.
	Title string
	// Points is the embedded update set of the captured round.
	Points []EmbeddingPoint
	// SilhouetteByStaleness quantifies the figures' visual claim: updates
	// sharing a staleness level cluster around a common center. Higher is
	// tighter clustering by staleness.
	SilhouetteByStaleness float64
	// Round is the captured aggregation round.
	Round int
}

// Render prints the embedding as an ASCII scatter plot followed by a
// compact text summary and CSV rows.
func (e *EmbeddingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", e.ID, e.Title)
	fmt.Fprintf(&b, "captured round %d, %d updates, staleness silhouette %.3f\n\n",
		e.Round, len(e.Points), e.SilhouetteByStaleness)
	b.WriteString(e.Scatter(64, 20))
	b.WriteString("\nx,y,staleness,client\n")
	for _, p := range e.Points {
		fmt.Fprintf(&b, "%.4f,%.4f,%d,%d\n", p.X, p.Y, p.Staleness, p.ClientID)
	}
	return b.String()
}

// captureFilter records the update batch of one aggregation round while
// accepting everything (the figures study undefended updates).
type captureFilter struct {
	targetRound int
	captured    []*fl.Update
	round       int
}

func (c *captureFilter) Name() string { return "capture" }

func (c *captureFilter) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	c.round = round
	if round == c.targetRound && c.captured == nil {
		c.captured = make([]*fl.Update, len(updates))
		for i, u := range updates {
			c.captured[i] = fl.CloneUpdate(u)
		}
	}
	return fl.AcceptAll(len(updates)), nil
}

// RunEmbedding reproduces Figure 3 (alpha <= 0: IID) or Figure 4 (non-IID
// with the given Dirichlet alpha): run MNIST AFL undefended, capture the
// update batch of a mid-training round, and embed it with t-SNE.
func RunEmbedding(id string, alpha float64, scale Scale) (*EmbeddingResult, error) {
	scale = scale.withDefaults()
	cfg, err := sim.Default("mnist")
	if err != nil {
		return nil, err
	}
	cfg.Seed = scale.BaseSeed
	cfg.PartitionAlpha = alpha
	cfg.NumMalicious = 0
	if scale.Rounds > 0 {
		cfg.Rounds = scale.Rounds
	}
	// Capture an early round: staleness-induced drift between model
	// versions is largest while the model still moves quickly, which is
	// when the figures' staleness clustering is visible.
	captureRound := 3
	if captureRound > cfg.Rounds/2 {
		captureRound = cfg.Rounds / 2
	}
	if captureRound < 1 {
		captureRound = 1
	}
	capture := &captureFilter{targetRound: captureRound}
	s, err := sim.New(cfg, capture, nil)
	if err != nil {
		return nil, err
	}
	if _, err := s.Run(); err != nil {
		return nil, err
	}
	if len(capture.captured) == 0 {
		return nil, fmt.Errorf("experiments: no updates captured at round %d", captureRound)
	}

	points := make([][]float64, len(capture.captured))
	for i, u := range capture.captured {
		points[i] = u.Delta
	}
	embedded, err := tsne.Embed(points, tsne.Config{Seed: scale.BaseSeed, Iterations: 400})
	if err != nil {
		return nil, err
	}

	res := &EmbeddingResult{ID: id, Round: captureRound}
	if alpha <= 0 {
		res.Title = "t-SNE of local updates on MNIST, IID (paper Figure 3)"
	} else {
		res.Title = fmt.Sprintf("t-SNE of local updates on MNIST, non-IID alpha=%.2f (paper Figure 4)", alpha)
	}
	emb2 := make([][]float64, len(embedded))
	labels := make([]int, len(embedded))
	staleSet := map[int]int{}
	for i, u := range capture.captured {
		res.Points = append(res.Points, EmbeddingPoint{
			X: embedded[i][0], Y: embedded[i][1],
			Staleness: u.Staleness, ClientID: u.ClientID,
		})
		emb2[i] = []float64{embedded[i][0], embedded[i][1]}
		if _, ok := staleSet[u.Staleness]; !ok {
			staleSet[u.Staleness] = len(staleSet)
		}
		labels[i] = staleSet[u.Staleness]
	}
	res.SilhouetteByStaleness = silhouette2D(emb2, labels, len(staleSet))
	return res, nil
}

// silhouette2D measures how tightly the embedded points cluster by their
// staleness label.
func silhouette2D(points [][]float64, labels []int, k int) float64 {
	return cluster.Silhouette(points, labels, k)
}

// SweepPoint is one (staleness limit, attack) measurement of Figure 6.
type SweepPoint struct {
	// StalenessLimit is the server limit swept over {5, 10, 15, 20}.
	StalenessLimit int
	// Attack identifies the column (GD or LIE).
	Attack string
	// Mean and Std summarize final accuracy across seeds.
	Mean, Std float64
}

// SweepResult reproduces Figure 6.
type SweepResult struct {
	ID     string
	Title  string
	Points []SweepPoint
}

// Render prints the sweep series.
func (s *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n\n", s.ID, s.Title)
	b.WriteString("| Staleness limit | Attack | Accuracy |\n|---|---|---|\n")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "| %d | %s | %.1f%% ± %.1f |\n", p.StalenessLimit, attackLabel(p.Attack), 100*p.Mean, 100*p.Std)
	}
	return b.String()
}

// RunStalenessSweep reproduces Figure 6: FashionMNIST under GD and LIE,
// AsyncFilter enabled, staleness limit swept over {5, 10, 15, 20}, each
// point averaged over three seeds (as in the paper).
func RunStalenessSweep(scale Scale) (*SweepResult, error) {
	scale = scale.withDefaults()
	if scale.Repeats < 2 {
		scale.Repeats = 3 // the paper repeats each point three times
	}
	res := &SweepResult{
		ID:    "fig6",
		Title: "AsyncFilter accuracy vs server staleness limit on FashionMNIST (paper Figure 6)",
	}
	for _, limit := range []int{5, 10, 15, 20} {
		for _, atkName := range []string{attack.GDName, attack.LIEName} {
			accs := make([]float64, 0, scale.Repeats)
			for rep := 0; rep < scale.Repeats; rep++ {
				seed := scale.BaseSeed + int64(rep)
				cfg, err := sim.Default("fashionmnist")
				if err != nil {
					return nil, err
				}
				cfg.Seed = seed
				cfg.StalenessLimit = limit
				cfg.Attack = attack.Config{Name: atkName}
				if scale.Rounds > 0 {
					cfg.Rounds = scale.Rounds
				}
				filter, err := NewFilter(FilterAsyncFilter, seed)
				if err != nil {
					return nil, err
				}
				s, err := sim.New(cfg, filter, nil)
				if err != nil {
					return nil, err
				}
				r, err := s.Run()
				if err != nil {
					return nil, err
				}
				accs = append(accs, r.FinalAccuracy)
			}
			mean, std := stats.MeanStd(accs)
			res.Points = append(res.Points, SweepPoint{
				StalenessLimit: limit, Attack: atkName, Mean: mean, Std: std,
			})
		}
	}
	return res, nil
}

// AblationBar is one bar of Figure 7.
type AblationBar struct {
	// Attack identifies the group, Variant the bar (3-means / 2-means).
	Attack  string
	Variant string
	// Accuracy is the final global model accuracy.
	Accuracy float64
	// RejectedBenign counts honest updates rejected across the run — the
	// mechanism the figure attributes 2-means' accuracy loss to.
	RejectedBenign int
}

// AblationResult reproduces Figure 7.
type AblationResult struct {
	ID    string
	Title string
	Bars  []AblationBar
}

// Render prints the bars.
func (a *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n\n", a.ID, a.Title)
	b.WriteString("| Attack | Variant | Accuracy | Benign rejected |\n|---|---|---|---|\n")
	for _, bar := range a.Bars {
		fmt.Fprintf(&b, "| %s | %s | %.1f%% | %d |\n", attackLabel(bar.Attack), bar.Variant, 100*bar.Accuracy, bar.RejectedBenign)
	}
	return b.String()
}

// RunKMeansAblation reproduces Figure 7: AsyncFilter-3means vs
// AsyncFilter-2means on FashionMNIST (Dirichlet alpha 0.1) under the four
// attacks.
func RunKMeansAblation(scale Scale) (*AblationResult, error) {
	scale = scale.withDefaults()
	res := &AblationResult{
		ID:    "fig7",
		Title: "AsyncFilter-3means vs AsyncFilter-2means on FashionMNIST (paper Figure 7)",
	}
	for _, atkName := range robustnessAttacks() {
		for _, variant := range []string{FilterAsyncFilter, FilterAsyncFilter2} {
			cfg, err := sim.Default("fashionmnist")
			if err != nil {
				return nil, err
			}
			cfg.Seed = scale.BaseSeed
			cfg.Attack = attack.Config{Name: atkName}
			if scale.Rounds > 0 {
				cfg.Rounds = scale.Rounds
			}
			filter, err := NewFilter(variant, scale.BaseSeed)
			if err != nil {
				return nil, err
			}
			s, err := sim.New(cfg, filter, nil)
			if err != nil {
				return nil, err
			}
			r, err := s.Run()
			if err != nil {
				return nil, err
			}
			res.Bars = append(res.Bars, AblationBar{
				Attack:         atkName,
				Variant:        variant,
				Accuracy:       r.FinalAccuracy,
				RejectedBenign: r.Detection.FP,
			})
		}
	}
	return res, nil
}
