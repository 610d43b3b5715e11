package eval

import (
	"fmt"

	"dehealth/internal/linkage"
)

// LinkageExperiment regenerates the §VI proof-of-concept linkage attack:
// NameLink aggregation from the WebMD-like forum to the HB-like forum,
// AvatarLink from the WebMD-like forum to the external social directory,
// and the cross-validation overlap between the two — the paper's headline
// numbers are 1676 cross-forum links, 347/2805 (12.4%) avatar links, 137
// users found by both, and 33.4% of avatar-linked users reached on 2+
// services.
func LinkageExperiment(c *Corpora) Table {
	model := linkage.NewEntropyModel(2)
	model.Train(c.Directory.Usernames())

	nameCfg := linkage.DefaultNameLinkConfig()
	crossPairs := linkage.CrossForumNameLink(c.WebMD, c.HB, model, nameCfg)
	crossCorrect, crossTotal := linkage.ScoreCrossForum(c.WebMD, c.HB, crossPairs)
	hbGain := linkage.AggregateCrossForum(c.WebMD, c.HB, crossPairs)

	bsPairs := linkage.CrossForumNameLink(c.WebMD, c.BoneSmart, model, nameCfg)
	bsGain := linkage.AggregateCrossForum(c.WebMD, c.BoneSmart, bsPairs)

	usable := linkage.UsableAvatars(c.WebMD)
	avLinks := linkage.AvatarLink(c.WebMD, c.Directory, linkage.DefaultAvatarLinkConfig())
	avCorrect, avTotal := linkage.Score(c.WebMD, c.Directory, avLinks)

	nmLinks := linkage.NameLink(c.WebMD, c.Directory, model, nameCfg)
	dossiers := linkage.Aggregate(c.WebMD, c.Directory, avLinks, nmLinks)
	enriched := linkage.EnrichFromPeopleSearch(dossiers, c.Directory, "whitepages")

	// Users linked both cross-forum and to a real person.
	crossSet := map[int]bool{}
	for _, p := range crossPairs {
		crossSet[p[0]] = true
	}
	avSet := map[int]bool{}
	for _, l := range avLinks {
		avSet[l.User] = true
	}
	both := 0
	for u := range avSet {
		if crossSet[u] {
			both++
		}
	}
	// The paper's ">= 33.4% on 2+ services" counts among the avatar-linked
	// population (its 347), so restrict the numerator's denominator to it.
	multiService, avatarDossiers := 0, 0
	for _, d := range dossiers {
		if !avSet[d.User] {
			continue
		}
		avatarDossiers++
		if len(d.Services) >= 2 {
			multiService++
		}
	}
	withName, withPhone := 0, 0
	for _, d := range dossiers {
		if d.FullName != "" {
			withName++
		}
		if d.Phone != "" {
			withPhone++
		}
	}

	t := Table{
		Title:  "§VI linkage attack (measured vs paper)",
		Header: []string{"quantity", "measured", "paper (at 89,393 users)"},
	}
	t.AddRow("webmd users", fmt.Sprintf("%d", c.WebMD.NumUsers()), "89,393")
	t.AddRow("cross-forum username links (webmd->hb)", fmt.Sprintf("%d", crossTotal), "1,676")
	t.AddRow("cross-forum link precision", ratio(crossCorrect, crossTotal), "manually validated (~1.0)")
	t.AddRow("webmd users gaining a location via hb", fmt.Sprintf("%d", hbGain.GainedLocation), "info aggregation (§VI-A)")
	t.AddRow("cross-forum links webmd->bonesmart", fmt.Sprintf("%d", bsGain.Pairs), "info aggregation (§VI-A)")
	t.AddRow("webmd users gaining an age via bonesmart", fmt.Sprintf("%d", bsGain.GainedAge), "info aggregation (§VI-A)")
	t.AddRow("usable avatars after filtering", fmt.Sprintf("%d", len(usable)), "2,805")
	t.AddRow("avatar links to real people", fmt.Sprintf("%d", avTotal), "347")
	t.AddRow("avatar link rate among usable", ratio(avTotal, len(usable)), "0.124")
	t.AddRow("avatar link precision", ratio(avCorrect, avTotal), "manually validated (~1.0)")
	t.AddRow("users linked by both techniques", fmt.Sprintf("%d", both), "137")
	t.AddRow("avatar-linked users on 2+ services", ratio(multiService, avatarDossiers), ">= 0.334")
	t.AddRow("dossiers enriched via people search", fmt.Sprintf("%d", enriched), "Whitepages profiles (§VI-B)")
	t.AddRow("dossiers with full name", ratio(withName, len(dossiers)), "most of 347")
	t.AddRow("dossiers with phone number", ratio(withPhone, len(dossiers)), "most of 347")
	return t
}

func ratio(num, den int) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(num)/float64(den))
}
