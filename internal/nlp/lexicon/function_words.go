package lexicon

// FunctionWords is the function-word inventory used by the Table I
// "function words" features (337 words). It follows the standard stylometry
// function-word lists (articles, pronouns, prepositions, conjunctions,
// auxiliaries, quantifiers, common adverbs and discourse particles).
//
// The list is sorted and deduplicated when the package is initialized; its
// length is asserted by tests to match the Table I count.
var FunctionWords = dedupSorted([]string{
	// Articles & determiners.
	"a", "an", "the", "this", "that", "these", "those", "each", "every",
	"either", "neither", "some", "any", "no", "all", "both", "half", "such",
	"what", "which", "whose", "another", "other", "others", "certain",
	// Personal pronouns.
	"i", "me", "my", "mine", "myself", "we", "us", "our", "ours", "ourselves",
	"you", "your", "yours", "yourself", "yourselves", "he", "him", "his",
	"himself", "she", "her", "hers", "herself", "it", "its", "itself", "they",
	"them", "their", "theirs", "themselves", "one", "oneself",
	// Indefinite pronouns.
	"anybody", "anyone", "anything", "everybody", "everyone", "everything",
	"nobody", "none", "nothing", "somebody", "someone", "something", "whoever",
	"whomever", "whatever", "whichever",
	// Interrogatives & relatives.
	"who", "whom", "when", "where", "why", "how",
	// Prepositions.
	"about", "above", "across", "after", "against", "along", "alongside",
	"amid", "among", "amongst", "around", "as", "at", "atop", "before",
	"behind", "below", "beneath", "beside", "besides", "between", "beyond",
	"but", "by", "concerning", "despite", "down", "during", "except", "for",
	"from", "in", "inside", "into", "like", "near", "of", "off", "on", "onto",
	"opposite", "out", "outside", "over", "past", "per", "regarding", "round",
	"since", "through", "throughout", "till", "to", "toward", "towards",
	"under", "underneath", "unlike", "until", "unto", "up", "upon", "via",
	"with", "within", "without",
	// Coordinating & subordinating conjunctions.
	"and", "or", "nor", "so", "yet", "although", "because", "if", "lest",
	"once", "provided", "than", "though", "unless", "whenever", "whereas",
	"wherever", "whether", "while", "whilst",
	// Auxiliaries & modals (with common contracted negations).
	"am", "is", "are", "was", "were", "be", "been", "being", "do", "does",
	"did", "doing", "done", "have", "has", "had", "having", "can", "could",
	"may", "might", "must", "shall", "should", "will", "would", "ought",
	"need", "dare", "used", "isn't", "aren't", "wasn't", "weren't", "don't",
	"doesn't", "didn't", "haven't", "hasn't", "hadn't", "can't", "cannot",
	"couldn't", "mightn't", "mustn't", "shan't", "shouldn't", "won't",
	"wouldn't", "ain't",
	// Quantifiers & numerals-as-determiners.
	"few", "fewer", "fewest", "less", "least", "little", "lot", "lots",
	"many", "more", "most", "much", "several", "various", "enough", "plenty",
	"couple", "dozen",
	// Common adverbs & discourse particles.
	"again", "ago", "almost", "already", "also", "always", "anywhere",
	"away", "back", "even", "ever", "everywhere", "far", "hardly", "hence",
	"here", "hither", "however", "instead", "just", "maybe", "meanwhile",
	"merely", "mostly", "namely", "nearly", "never", "nevertheless", "next",
	"nonetheless", "not", "now", "nowhere", "often", "only", "otherwise",
	"perhaps", "quite", "rather", "really", "seldom", "sometimes", "somewhat",
	"somewhere", "soon", "still", "then", "thence", "there", "thereafter",
	"thereby", "therefore", "therein", "thereupon", "thus", "too", "together",
	"very", "well", "whence", "whereby", "wherein", "whereupon", "yes",
	"anyhow", "anyway", "elsewhere", "furthermore", "moreover", "indeed",
	"accordingly",
	// Misc particles and frequent forms.

	"vis", "amidst", "behalf", "midst",
	"nearby", "forth", "aboard", "astride", "bar", "circa", "cum", "minus",
	"plus", "pro", "qua", "re", "sans", "save", "worth", "pending",
	"barring", "excepting", "excluding", "including", "failing", "following",
	"given", "granted", "respecting", "touching", "wanting", "considering",
})
