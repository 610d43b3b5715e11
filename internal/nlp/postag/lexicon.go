package postag

// ClosedClass maps closed-class words (determiners, pronouns, prepositions,
// conjunctions, modals, particles, wh-words, common interjections) to their
// Penn tags. Closed classes carry most of the authorial syntax signal, so
// they are enumerated exhaustively rather than guessed from morphology.
//
// ClosedClass and OpenClass are read-only data: the tagger compiles both
// into one lookup table when the package is initialized.
var ClosedClass = map[string]string{
	// Determiners.
	"the": "DT", "a": "DT", "an": "DT", "this": "DT", "that": "DT",
	"these": "DT", "those": "DT", "each": "DT", "every": "DT", "either": "DT",
	"neither": "DT", "some": "DT", "any": "DT", "no": "DT", "another": "DT",
	// Predeterminers.
	"all": "PDT", "both": "PDT", "half": "PDT", "such": "PDT", "quite": "PDT",
	// Personal pronouns.
	"i": "PRP", "me": "PRP", "we": "PRP", "us": "PRP", "you": "PRP",
	"he": "PRP", "him": "PRP", "she": "PRP", "it": "PRP", "they": "PRP",
	"them": "PRP", "myself": "PRP", "ourselves": "PRP", "yourself": "PRP",
	"yourselves": "PRP", "himself": "PRP", "herself": "PRP", "itself": "PRP",
	"themselves": "PRP", "oneself": "PRP", "mine": "PRP", "yours": "PRP",
	"hers": "PRP", "ours": "PRP", "theirs": "PRP",
	"anybody": "PRP", "anyone": "PRP", "anything": "PRP", "everybody": "PRP",
	"everyone": "PRP", "everything": "PRP", "nobody": "PRP", "nothing": "PRP",
	"somebody": "PRP", "someone": "PRP", "something": "PRP", "none": "PRP",
	// Possessive pronouns.
	"my": "PRP$", "our": "PRP$", "your": "PRP$", "his": "PRP$", "its": "PRP$",
	"their": "PRP$", "her": "PRP$",
	// Wh-words.
	"who": "WP", "whom": "WP", "whoever": "WP", "whomever": "WP",
	"whose": "WP$",
	"which": "WDT", "whichever": "WDT", "whatever": "WDT", "what": "WP",
	"when": "WRB", "where": "WRB", "why": "WRB", "how": "WRB",
	"whenever": "WRB", "wherever": "WRB",
	// Existential there.
	"there": "EX",
	// Prepositions / subordinating conjunctions.
	"of": "IN", "in": "IN", "on": "IN", "at": "IN", "by": "IN", "for": "IN",
	"with": "IN", "about": "IN", "against": "IN", "between": "IN",
	"into": "IN", "through": "IN", "during": "IN", "before": "IN",
	"after": "IN", "above": "IN", "below": "IN", "from": "IN", "up": "RP",
	"down": "RP", "out": "RP", "off": "RP", "over": "IN", "under": "IN",
	"again": "RB", "further": "RB", "then": "RB", "once": "RB",
	"across": "IN", "along": "IN", "among": "IN", "amongst": "IN",
	"around": "IN", "as": "IN", "behind": "IN", "beneath": "IN",
	"beside": "IN", "besides": "IN", "beyond": "IN", "despite": "IN",
	"except": "IN", "inside": "IN", "near": "IN", "onto": "IN",
	"outside": "IN", "past": "IN", "per": "IN", "since": "IN", "than": "IN",
	"till": "IN", "toward": "IN", "towards": "IN", "until": "IN",
	"unto": "IN", "upon": "IN", "via": "IN", "within": "IN", "without": "IN",
	"although": "IN", "because": "IN", "if": "IN", "unless": "IN",
	"whereas": "IN", "whether": "IN", "while": "IN", "whilst": "IN",
	"though": "IN", "like": "IN", "throughout": "IN", "underneath": "IN",
	"unlike": "IN", "amid": "IN",
	// Coordinating conjunctions.
	"and": "CC", "or": "CC", "but": "CC", "nor": "CC", "so": "CC",
	"yet": "CC", "plus": "CC",
	// To.
	"to": "TO",
	// Modals.
	"can": "MD", "could": "MD", "may": "MD", "might": "MD", "must": "MD",
	"shall": "MD", "should": "MD", "will": "MD", "would": "MD",
	"can't": "MD", "cannot": "MD", "couldn't": "MD", "won't": "MD",
	"wouldn't": "MD", "shouldn't": "MD", "mustn't": "MD", "mightn't": "MD",
	// Be / have / do forms.
	"am": "VBP", "is": "VBZ", "are": "VBP", "was": "VBD", "were": "VBD",
	"be": "VB", "been": "VBN", "being": "VBG",
	"isn't": "VBZ", "aren't": "VBP", "wasn't": "VBD", "weren't": "VBD",
	"have": "VBP", "has": "VBZ", "had": "VBD", "having": "VBG",
	"haven't": "VBP", "hasn't": "VBZ", "hadn't": "VBD",
	"do": "VBP", "does": "VBZ", "did": "VBD", "doing": "VBG", "done": "VBN",
	"don't": "VBP", "doesn't": "VBZ", "didn't": "VBD",
	// Negation and frequent adverbs.
	"not": "RB", "n't": "RB", "never": "RB", "always": "RB", "often": "RB",
	"sometimes": "RB", "usually": "RB", "really": "RB", "very": "RB",
	"too": "RB", "also": "RB", "just": "RB", "still": "RB", "already": "RB",
	"now": "RB", "here": "RB", "even": "RB", "only": "RB", "maybe": "RB",
	"perhaps": "RB", "however": "RB", "instead": "RB", "away": "RB",
	"back": "RB", "soon": "RB", "ever": "RB", "far": "RB", "well": "RB",
	"almost": "RB", "enough": "RB", "rather": "RB", "please": "RB",
	"ago": "RB", "else": "RB", "later": "RB", "today": "RB",
	"tomorrow": "RB", "yesterday": "RB", "yeah": "UH",
	// Comparative/superlative adverbs.
	"more": "RBR", "most": "RBS", "less": "RBR", "least": "RBS",
	"better": "RBR", "best": "RBS", "worse": "RBR", "worst": "RBS",
	// Interjections common in forum posts.
	"oh": "UH", "hi": "UH", "hello": "UH", "hey": "UH", "wow": "UH",
	"ouch": "UH", "ugh": "UH", "hmm": "UH", "ok": "UH", "okay": "UH",
	"thanks": "UH", "yes": "UH",
	// Possessive marker (when tokenized separately).
	"'s": "POS",
}

// OpenClass resolves frequent ambiguous open-class words that the suffix
// rules would otherwise mis-tag. Mostly high-frequency medical-forum
// vocabulary: verbs without inflectional suffixes and irregular forms.
var OpenClass = map[string]string{
	// Frequent base verbs.
	"go": "VBP", "get": "VBP", "know": "VBP", "think": "VBP", "take": "VBP",
	"see": "VBP", "feel": "VBP", "want": "VBP", "say": "VBP", "make": "VBP",
	"need": "VBP", "try": "VBP", "ask": "VBP", "tell": "VBP", "find": "VBP",
	"give": "VBP", "keep": "VBP", "let": "VBP", "put": "VBP", "seem": "VBP",
	"help": "VBP", "talk": "VBP", "turn": "VBP", "start": "VBP", "hope": "VBP",
	"hurt": "VBP", "wish": "VBP", "thank": "VBP", "guess": "VBP",
	// Irregular past forms.
	"went": "VBD", "got": "VBD", "knew": "VBD", "thought": "VBD",
	"took": "VBD", "saw": "VBD", "felt": "VBD", "said": "VBD", "made": "VBD",
	"found": "VBD", "gave": "VBD", "kept": "VBD", "told": "VBD",
	"came": "VBD", "began": "VBD", "woke": "VBD", "ate": "VBD",
	"slept": "VBD", "broke": "VBD", "ran": "VBD", "grew": "VBD",
	// Irregular participles.
	"gone": "VBN", "known": "VBN", "taken": "VBN", "seen": "VBN",
	"given": "VBN", "broken": "VBN", "grown": "VBN",
	"woken": "VBN", "eaten": "VBN", "run": "VBN", "become": "VBN",
	// Frequent nouns that look like verbs/adjectives to the suffix rules.
	"doctor": "NN", "pain": "NN", "time": "NN", "day": "NN", "week": "NN",
	"month": "NN", "year": "NN", "blood": "NN", "test": "NN", "result": "NN",
	"symptom": "NN", "medication": "NN", "medicine": "NN", "dose": "NN",
	"side": "NN", "effect": "NN", "sleep": "NN", "night": "NN", "body": "NN",
	"head": "NN", "heart": "NN", "stomach": "NN", "skin": "NN", "life": "NN",
	"thing": "NN", "people": "NNS",
	"problem": "NN", "question": "NN", "answer": "NN", "advice": "NN",
	"surgery": "NN", "treatment": "NN", "condition": "NN", "disease": "NN",
	// Frequent adjectives.
	"good": "JJ", "bad": "JJ", "new": "JJ", "old": "JJ", "high": "JJ",
	"low": "JJ", "big": "JJ", "small": "JJ", "long": "JJ", "short": "JJ",
	"same": "JJ", "different": "JJ", "sick": "JJ", "tired": "JJ",
	"scared": "JJ", "worried": "JJ", "normal": "JJ", "severe": "JJ",
	"chronic": "JJ", "sure": "JJ", "first": "JJ", "last": "JJ", "right": "JJ", "left": "JJ", "whole": "JJ", "own": "JJ", "other": "JJ",
	"many": "JJ", "few": "JJ", "much": "JJ", "several": "JJ", "little": "JJ",
}
