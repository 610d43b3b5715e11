package eval

import (
	"math/rand"

	"dehealth/internal/corpus"
	"dehealth/internal/linkage"
	"dehealth/internal/synth"
)

// Scale sets the size of the regenerated evaluation universe. The paper's
// corpora hold 89,393 (WebMD) and 388,398 (HB) users; cmd/experiments'
// default -webmd/-hb sizes keep the same shape statistics at laptop size.
// All experiments accept a Scale so the full-size run is a parameter
// change.
type Scale struct {
	// WebMDUsers and HBUsers are the forum account counts. BoneSmartUsers
	// sizes the third forum of §VI-A (0 = WebMDUsers/2).
	WebMDUsers, HBUsers, BoneSmartUsers int
	// OverlapFrac is the fraction of WebMD users who also hold an HB
	// account (drives the §VI cross-forum linkage).
	OverlapFrac float64
	// Seed drives the whole universe.
	Seed int64
}

// Corpora bundles the regenerated evaluation world: both forums, the
// ground-truth universe behind them, and the external-service directory.
type Corpora struct {
	Scale     Scale
	Universe  *synth.Universe
	WebMD, HB *corpus.Dataset
	// BoneSmart is the third forum (ages public) used by the §VI-A
	// information-aggregation experiment.
	BoneSmart *corpus.Dataset
	Directory *linkage.Directory
}

// GenerateCorpora builds the full evaluation world at the given scale.
func GenerateCorpora(s Scale) *Corpora {
	if s.BoneSmartUsers == 0 {
		s.BoneSmartUsers = s.WebMDUsers / 2
	}
	overlap := int(s.OverlapFrac * float64(s.WebMDUsers))
	uSize := s.WebMDUsers + s.HBUsers - overlap + s.WebMDUsers/2 // head-room for non-members
	u := synth.NewUniverse(uSize, s.Seed)
	rng := rand.New(rand.NewSource(s.Seed + 1))
	wm, hm := synth.OverlappingMembers(u, s.WebMDUsers, s.HBUsers, overlap, rng)
	webmd := synth.Generate(synth.WebMDLike(s.WebMDUsers, s.Seed+2), u, wm)
	hb := synth.Generate(synth.HBLike(s.HBUsers, s.Seed+3), u, hm)
	// BoneSmart members are drawn independently; overlap with WebMD arises
	// from the shared universe.
	bm := synth.Members(u, s.BoneSmartUsers, rng)
	bs := synth.Generate(synth.BoneSmartLike(s.BoneSmartUsers, s.Seed+5), u, bm)
	dir := synth.SocialDirectory(u, synth.DefaultServices(), s.Seed+4)
	return &Corpora{Scale: s, Universe: u, WebMD: webmd, HB: hb, BoneSmart: bs, Directory: dir}
}

// RefinedCorpus generates the small fixed-posts populations of the §V
// refined-DA experiments ("50 users each with 20 posts").
func RefinedCorpus(nUsers, postsPerUser int, seed int64) (*corpus.Dataset, *synth.Universe) {
	u := synth.NewUniverse(nUsers, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	members := synth.Members(u, nUsers, rng)
	cfg := synth.WebMDLike(nUsers, seed+2)
	cfg.FixedPosts = postsPerUser
	return synth.Generate(cfg, u, members), u
}
