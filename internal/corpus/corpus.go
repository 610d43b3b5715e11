// Package corpus defines the dataset model shared by the whole pipeline: a
// health forum is a set of users, threads (topics) and posts. It also
// provides the dataset surgery the paper's evaluation needs — closed-world
// percentage splits, open-world overlap constructions (§V-B footnote 10) —
// and the corpus statistics behind Fig.1 and Fig.2.
package corpus

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"dehealth/internal/textutil"
)

// AvatarKind classifies a user's avatar for the §VI AvatarLink filters.
type AvatarKind int

// Avatar kinds, mirroring the four §VI-B filtering conditions.
const (
	// AvatarDefault is the service's default avatar (excluded).
	AvatarDefault AvatarKind = iota
	// AvatarNonHuman depicts objects, animals, scenery or logos (excluded).
	AvatarNonHuman
	// AvatarFictitious depicts a fictitious person (excluded).
	AvatarFictitious
	// AvatarKids depicts only children (excluded).
	AvatarKids
	// AvatarRealPerson depicts the (adult) user (usable for AvatarLink).
	AvatarRealPerson
)

// User is a registered forum member. TrueIdentity is generator ground truth
// used exclusively for scoring attacks; a real adversary does not have it.
type User struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Location string `json:"location,omitempty"`
	// Age is the publicly shown age (0 = hidden); BoneSmart-style forums
	// expose it, which the §VI information-aggregation attack exploits.
	Age int `json:"age,omitempty"`

	// AvatarHash is a 64-bit perceptual-hash-like avatar fingerprint;
	// meaningful only when AvatarKind != AvatarDefault.
	AvatarHash uint64     `json:"avatar_hash,omitempty"`
	AvatarKind AvatarKind `json:"avatar_kind,omitempty"`

	// TrueIdentity is the ground-truth person id behind the account
	// (-1 when unknown). Evaluation-only.
	TrueIdentity int `json:"true_identity"`
}

// Thread is a discussion topic on a board; posts under the same thread
// create co-discussion edges in the correlation graph.
type Thread struct {
	ID      int    `json:"id"`
	Board   string `json:"board"`
	Starter int    `json:"starter"`
}

// Post is a single message.
type Post struct {
	ID     int    `json:"id"`
	User   int    `json:"user"`
	Thread int    `json:"thread"`
	Text   string `json:"text"`
}

// Dataset is one forum's data (or a split of it).
type Dataset struct {
	Name    string   `json:"name"`
	Users   []User   `json:"users"`
	Threads []Thread `json:"threads"`
	Posts   []Post   `json:"posts"`
}

// NumUsers returns the number of users.
func (d *Dataset) NumUsers() int { return len(d.Users) }

// NumPosts returns the number of posts.
func (d *Dataset) NumPosts() int { return len(d.Posts) }

// PostsByUser returns, for each user index, the indices of their posts in
// d.Posts, preserving post order.
func (d *Dataset) PostsByUser() [][]int {
	out := make([][]int, len(d.Users))
	for i, p := range d.Posts {
		out[p.User] = append(out[p.User], i)
	}
	return out
}

// UserTexts returns the post texts of each user.
func (d *Dataset) UserTexts() [][]string {
	byUser := d.PostsByUser()
	out := make([][]string, len(d.Users))
	for u, idxs := range byUser {
		texts := make([]string, len(idxs))
		for k, i := range idxs {
			texts[k] = d.Posts[i].Text
		}
		out[u] = texts
	}
	return out
}

// Texts returns all post texts.
func (d *Dataset) Texts() []string {
	out := make([]string, len(d.Posts))
	for i, p := range d.Posts {
		out[i] = p.Text
	}
	return out
}

// Validate checks referential integrity (post user/thread ids in range,
// thread starters in range, user ids dense).
func (d *Dataset) Validate() error {
	for i, u := range d.Users {
		if u.ID != i {
			return fmt.Errorf("user %d has id %d; ids must be dense indices", i, u.ID)
		}
	}
	for i, t := range d.Threads {
		if t.ID != i {
			return fmt.Errorf("thread %d has id %d; ids must be dense indices", i, t.ID)
		}
		if t.Starter < 0 || t.Starter >= len(d.Users) {
			return fmt.Errorf("thread %d starter %d out of range", i, t.Starter)
		}
	}
	for i, p := range d.Posts {
		if p.ID != i {
			return fmt.Errorf("post %d has id %d; ids must be dense indices", i, p.ID)
		}
		if p.User < 0 || p.User >= len(d.Users) {
			return fmt.Errorf("post %d user %d out of range", i, p.User)
		}
		if p.Thread < 0 || p.Thread >= len(d.Threads) {
			return fmt.Errorf("post %d thread %d out of range", i, p.Thread)
		}
	}
	return nil
}

// Save writes the dataset as JSON to path.
func (d *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return nil
}

// Load reads a dataset from a JSON file written by Save.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d Dataset
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("validating %s: %w", path, err)
	}
	return &d, nil
}

// PostLengthWords returns the length of each post in words.
func (d *Dataset) PostLengthWords() []int {
	out := make([]int, len(d.Posts))
	for i, p := range d.Posts {
		out[i] = len(textutil.Words(p.Text))
	}
	return out
}

// MeanPostLengthWords returns the average post length in words (Fig.2
// headline statistic: 127.59 for WebMD, 147.24 for HB).
func (d *Dataset) MeanPostLengthWords() float64 {
	if len(d.Posts) == 0 {
		return 0
	}
	total := 0
	for _, n := range d.PostLengthWords() {
		total += n
	}
	return float64(total) / float64(len(d.Posts))
}

// PostCountCDF returns, for each x in xs, the fraction of users with at most
// x posts (Fig.1).
func (d *Dataset) PostCountCDF(xs []int) []float64 {
	counts := make([]int, len(d.Users))
	for _, p := range d.Posts {
		counts[p.User]++
	}
	sort.Ints(counts)
	out := make([]float64, len(xs))
	for i, x := range xs {
		// Number of users with count <= x.
		n := sort.SearchInts(counts, x+1)
		out[i] = float64(n) / float64(len(counts))
	}
	return out
}

// FractionUsersWithFewerThan returns the fraction of users with fewer than k
// posts (the paper reports 87.3% of WebMD and 75.4% of HB users have < 5).
func (d *Dataset) FractionUsersWithFewerThan(k int) float64 {
	counts := make([]int, len(d.Users))
	for _, p := range d.Posts {
		counts[p.User]++
	}
	n := 0
	for _, c := range counts {
		if c < k {
			n++
		}
	}
	if len(counts) == 0 {
		return 0
	}
	return float64(n) / float64(len(counts))
}

// PostLengthHistogram buckets post lengths (in words) into bins of width
// binWidth and returns the fraction of posts per bin, up to maxLen words
// (Fig.2). Posts longer than maxLen land in the last bin.
func (d *Dataset) PostLengthHistogram(binWidth, maxLen int) []float64 {
	if binWidth <= 0 || maxLen <= 0 {
		return nil
	}
	nBins := (maxLen + binWidth - 1) / binWidth
	hist := make([]float64, nBins)
	lengths := d.PostLengthWords()
	for _, l := range lengths {
		b := l / binWidth
		if b >= nBins {
			b = nBins - 1
		}
		hist[b]++
	}
	if len(lengths) > 0 {
		for i := range hist {
			hist[i] /= float64(len(lengths))
		}
	}
	return hist
}
