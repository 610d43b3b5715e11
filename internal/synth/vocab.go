package synth

// Vocabulary pools for the health-forum text generator. Boards pair a topic
// name with the condition/symptom/medication vocabulary its threads draw
// from, so users of the same board discuss overlapping subjects (as on
// WebMD/HealthBoards) while retaining individual writing styles.

// Board couples a board name with its topical vocabulary.
type Board struct {
	Name       string
	Conditions []string
	Symptoms   []string
	Meds       []string
}

// boards is the board inventory (HealthBoards offers 200+ boards; a smaller
// set with the same topical-clustering role suffices for the correlation
// graph shape).
var boards = []Board{
	{
		Name:       "diabetes",
		Conditions: []string{"diabetes", "type 2 diabetes", "prediabetes", "insulin resistance", "neuropathy"},
		Symptoms:   []string{"thirst", "fatigue", "blurred vision", "tingling", "numbness", "weight loss"},
		Meds:       []string{"metformin", "insulin", "glipizide", "januvia"},
	},
	{
		Name:       "heart-disease",
		Conditions: []string{"high blood pressure", "arrhythmia", "angina", "heart disease", "palpitations"},
		Symptoms:   []string{"chest pain", "shortness of breath", "dizziness", "racing heart", "pressure"},
		Meds:       []string{"lisinopril", "metoprolol", "atenolol", "aspirin", "statins"},
	},
	{
		Name:       "anxiety",
		Conditions: []string{"anxiety", "panic disorder", "social anxiety", "generalized anxiety", "panic attacks"},
		Symptoms:   []string{"racing thoughts", "sweating", "trembling", "insomnia", "dread", "nausea"},
		Meds:       []string{"ativan", "xanax", "zoloft", "lexapro", "buspar"},
	},
	{
		Name:       "depression",
		Conditions: []string{"depression", "bipolar disorder", "seasonal depression", "postpartum depression"},
		Symptoms:   []string{"sadness", "fatigue", "hopelessness", "low energy", "loss of appetite"},
		Meds:       []string{"prozac", "wellbutrin", "effexor", "cymbalta", "paxil"},
	},
	{
		Name:       "back-pain",
		Conditions: []string{"sciatica", "herniated disc", "scoliosis", "spinal stenosis", "degenerative disc disease"},
		Symptoms:   []string{"back pain", "leg pain", "stiffness", "muscle spasms", "numbness"},
		Meds:       []string{"ibuprofen", "naproxen", "flexeril", "gabapentin", "tramadol"},
	},
	{
		Name:       "migraine",
		Conditions: []string{"migraine", "cluster headaches", "tension headaches", "chronic migraine"},
		Symptoms:   []string{"headache", "aura", "light sensitivity", "nausea", "throbbing pain"},
		Meds:       []string{"imitrex", "topamax", "excedrin", "propranolol"},
	},
	{
		Name:       "thyroid",
		Conditions: []string{"hypothyroidism", "hyperthyroidism", "hashimotos", "graves disease", "thyroid nodules"},
		Symptoms:   []string{"weight gain", "hair loss", "cold intolerance", "fatigue", "brain fog"},
		Meds:       []string{"synthroid", "levothyroxine", "armour thyroid", "methimazole"},
	},
	{
		Name:       "digestive",
		Conditions: []string{"ibs", "acid reflux", "crohns disease", "ulcerative colitis", "gastritis", "celiac disease"},
		Symptoms:   []string{"bloating", "cramping", "heartburn", "stomach pain", "diarrhea", "constipation"},
		Meds:       []string{"omeprazole", "nexium", "zantac", "bentyl"},
	},
	{
		Name:       "allergies",
		Conditions: []string{"seasonal allergies", "food allergies", "asthma", "eczema", "hives"},
		Symptoms:   []string{"sneezing", "itching", "rash", "wheezing", "congestion", "watery eyes"},
		Meds:       []string{"zyrtec", "claritin", "benadryl", "albuterol", "flonase"},
	},
	{
		Name:       "arthritis",
		Conditions: []string{"rheumatoid arthritis", "osteoarthritis", "psoriatic arthritis", "gout", "lupus"},
		Symptoms:   []string{"joint pain", "swelling", "morning stiffness", "redness", "limited motion"},
		Meds:       []string{"methotrexate", "humira", "plaquenil", "prednisone", "celebrex"},
	},
	{
		Name:       "sleep",
		Conditions: []string{"insomnia", "sleep apnea", "restless legs", "narcolepsy"},
		Symptoms:   []string{"snoring", "daytime sleepiness", "trouble falling asleep", "waking up at night"},
		Meds:       []string{"ambien", "melatonin", "trazodone", "lunesta"},
	},
	{
		Name:       "womens-health",
		Conditions: []string{"pcos", "endometriosis", "menopause", "fibroids", "pms"},
		Symptoms:   []string{"irregular periods", "hot flashes", "cramps", "mood swings", "bloating"},
		Meds:       []string{"birth control", "clomid", "estrogen", "progesterone"},
	},
	{
		Name:       "skin",
		Conditions: []string{"acne", "psoriasis", "rosacea", "dermatitis", "shingles"},
		Symptoms:   []string{"breakouts", "dry skin", "itchy patches", "redness", "blisters"},
		Meds:       []string{"accutane", "retin a", "hydrocortisone", "clindamycin"},
	},
	{
		Name:       "infectious",
		Conditions: []string{"hep c", "lyme disease", "mono", "shingles", "uti", "strep throat"},
		Symptoms:   []string{"fever", "chills", "swollen glands", "sore throat", "burning", "body aches"},
		Meds:       []string{"antibiotics", "amoxicillin", "doxycycline", "valtrex", "cipro"},
	},
	{
		Name:       "cancer",
		Conditions: []string{"breast cancer", "lymphoma", "melanoma", "prostate cancer", "leukemia"},
		Symptoms:   []string{"lump", "night sweats", "unexplained weight loss", "fatigue", "pain"},
		Meds:       []string{"chemo", "tamoxifen", "radiation", "herceptin"},
	},
	{
		Name:       "kidney",
		Conditions: []string{"kidney stones", "chronic kidney disease", "kidney infection", "gout"},
		Symptoms:   []string{"flank pain", "blood in urine", "swelling", "frequent urination"},
		Meds:       []string{"potassium citrate", "allopurinol", "flomax"},
	},
}

// Generic vocabulary shared across boards.
var (
	bodyParts = []string{
		"head", "neck", "shoulder", "arm", "elbow", "wrist", "hand", "chest",
		"stomach", "hip", "leg", "knee", "ankle", "foot", "lower back",
		"upper back", "throat", "ear", "eye", "jaw",
	}
	durations = []string{
		"a few days", "a week", "two weeks", "three weeks", "a month",
		"two months", "six months", "a year", "two years", "several years",
		"a long time", "a couple of days", "about ten days",
	}
	timesOfDay = []string{
		"in the morning", "at night", "in the evening", "after meals",
		"before bed", "when i wake up", "during the day", "after exercise",
	}
	feelVerbs = []string{
		"feel", "felt", "have been feeling", "keep feeling", "started feeling",
	}
	intensity = []string{
		"mild", "moderate", "severe", "constant", "intermittent", "sharp",
		"dull", "burning", "terrible", "awful", "unbearable", "annoying",
	}
	doctorNouns = []string{
		"doctor", "gp", "specialist", "neurologist", "cardiologist",
		"endocrinologist", "dermatologist", "rheumatologist", "nurse",
		"pharmacist",
	}
	adviceVerbs = []string{
		"suggested", "recommended", "prescribed", "mentioned", "ordered",
		"wants to try", "put me on", "switched me to", "took me off",
	}
	testNouns = []string{
		"blood test", "mri", "ct scan", "x ray", "ultrasound", "biopsy",
		"stress test", "ekg", "colonoscopy", "urine test",
	}
	greetings = []string{
		"hi everyone", "hello all", "hi all", "hey everyone", "hello everyone",
		"hi there", "greetings", "hey all",
	}
	closers = []string{
		"thanks in advance", "any advice would be appreciated",
		"has anyone else experienced this", "any input would help",
		"thanks for reading", "sorry for the long post",
		"i would appreciate any suggestions", "please share your experience",
	}
	connectors = [][]string{
		{"but", "however", "though", "although", "yet"},
		{"because", "since", "as"},
		{"maybe", "perhaps", "possibly"},
		{"also", "besides", "moreover", "furthermore"},
		{"so", "therefore", "thus", "hence"},
	}
	fillers = []string{
		"really", "just", "very", "actually", "honestly", "basically",
		"pretty much", "kind of", "sort of", "literally", "definitely",
		"absolutely",
	}
	emoticons = []string{":)", ":(", ":/", ";)", ":-)", ":-("}
	// genericReplies is the pool of near style-free acknowledgement
	// sentences that make up the bulk of real forum replies.
	genericReplies = []string{
		"thanks for sharing your experience",
		"i will ask my doctor about that",
		"sorry to hear you are going through this",
		"that is exactly what happened to me",
		"please keep us posted on how it goes",
		"i hope you feel better soon",
		"did the side effects go away over time",
		"how long did it take to work for you",
		"good luck with the appointment",
		"thank you all for the replies",
		"that makes a lot of sense",
		"i was wondering the same thing",
		"glad to hear you are doing better",
		"sending you my best wishes",
		"my experience was very similar to yours",
	}
	catchphrases = []string{
		"fingers crossed", "take care everyone", "hugs to all",
		"god bless you all", "wishing you all the best", "hang in there",
		"one day at a time", "hope this helps somebody",
		"sending positive thoughts your way", "stay strong everyone",
		"keeping my chin up", "praying for answers", "thanks a million",
		"you are not alone in this", "better safe than sorry",
		"listen to your body", "trust your gut", "knowledge is power",
		"it is what it is", "this too shall pass", "never give up hope",
		"take it easy on yourself", "be well everyone", "peace and health",
		"good luck to everyone here", "keep fighting the good fight",
		"counting my blessings", "here if anyone needs to talk",
	}
)
