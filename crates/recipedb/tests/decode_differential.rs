//! The typed corpus decoder against its reference: `io::from_json` must
//! accept exactly the documents the reference decoder over a `Value`
//! tree (`common::reference`, which ends in the validating
//! `RecipeDb::from_parts`) accepts, and decode them to the same corpus —
//! the same `to_json` bytes and the same `corpus_digest`. Hand-written edge
//! cases cover the schema rules; truncation at every offset and
//! single-byte substitutions of a small corpus sweep the rest, and must
//! never panic.

mod common;

use recipedb::generator::{CorpusGenerator, GeneratorConfig};
use recipedb::store::{RecipeDb, RecipeDbBuilder};
use recipedb::{corpus_digest, io, Cuisine, RecipeDbError};

fn excerpt(json: &str) -> String {
    json.chars().take(300).collect()
}

/// Decode `json` with the typed decoder and the reference; they must
/// agree. Returns whether it was accepted.
fn agree(json: &str) -> bool {
    let typed = io::from_json(json);
    let tree = common::reference::decode(json);
    match (&typed, &tree) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                io::to_json(a).unwrap(),
                io::to_json(b).unwrap(),
                "decoded corpora differ on {:?}",
                excerpt(json)
            );
            assert_eq!(corpus_digest(a), corpus_digest(b));
            true
        }
        (Err(_), Err(_)) => false,
        (Ok(_), Err(e)) => panic!(
            "typed accepted, reference rejected ({e}): {:?}",
            excerpt(json)
        ),
        (Err(e), Ok(_)) => panic!(
            "typed rejected ({e}), reference accepted: {:?}",
            excerpt(json)
        ),
    }
}

fn accepted(json: &str) {
    assert!(agree(json), "both paths must accept {json}");
}

fn rejected(json: &str) {
    assert!(!agree(json), "both paths must reject {json}");
}

/// A one-recipe Japanese corpus whose recipe object is `recipe` and
/// whose root and catalog carry `root_extra` / `catalog_extra` (each
/// empty or a leading-comma member list).
fn doc_with(recipe: &str, root_extra: &str, catalog_extra: &str) -> String {
    let mut index = vec!["[]"; 26];
    index[13] = "[0]"; // Japanese
    format!(
        r#"{{"catalog":{{"ingredients":{{"names":["soy","rice"]}},"processes":{{"names":["heat"]}},"utensils":{{"names":["wok"]}}{catalog_extra}}},"recipes":[{recipe}],"by_cuisine":[{}]{root_extra}}}"#,
        index.join(",")
    )
}

fn doc(recipe: &str) -> String {
    doc_with(recipe, "", "")
}

const RECIPE: &str = r#"{"id":0,"name":"r0","cuisine":"Japanese","ingredients":[0,1],"processes":[0],"utensils":[0]}"#;

/// `RECIPE` with `field` replaced by `value` (inserted raw, so it may
/// be any JSON text, or several members).
fn recipe_with(field: &str, members: &str) -> String {
    let fields = [
        ("id", "0"),
        ("name", "\"r0\""),
        ("cuisine", "\"Japanese\""),
        ("ingredients", "[0,1]"),
        ("processes", "[0]"),
        ("utensils", "[0]"),
    ];
    let parts: Vec<String> = fields
        .iter()
        .map(|&(k, v)| {
            if k == field {
                members.to_string()
            } else {
                format!("\"{k}\":{v}")
            }
        })
        .filter(|s| !s.is_empty())
        .collect();
    format!("{{{}}}", parts.join(","))
}

#[test]
fn base_document_is_accepted() {
    accepted(&doc(RECIPE));
    accepted(&doc(&recipe_with("id", r#""id":0"#)));
}

#[test]
fn unknown_keys_are_ignored_at_every_level() {
    let junk = r#"{"a":[1,2.5,-3e2,{"b":null}],"c":"é\n","d":true,"e":false}"#;
    accepted(&doc(&recipe_with(
        "name",
        &format!(r#""name":"r0","extra":{junk}"#),
    )));
    accepted(&doc_with(RECIPE, &format!(r#","version":{junk}"#), ""));
    accepted(&doc_with(RECIPE, "", &format!(r#","flavors":{junk}"#)));
    let interner_extra = doc(RECIPE).replace(
        r#"{"names":["heat"]}"#,
        &format!(r#"{{"index":{junk},"names":["heat"]}}"#),
    );
    accepted(&interner_extra);
    // A skipped value must still be valid JSON.
    rejected(&doc(&recipe_with("name", r#""name":"r0","extra":[1,]"#)));
    rejected(&doc(&recipe_with("name", r#""name":"r0","extra":tru"#)));
    rejected(&doc(&recipe_with("name", r#""name":"r0","extra":"\q""#)));
}

#[test]
fn last_duplicate_key_wins() {
    // An invalid first value is overridden by a valid later one...
    for members in [
        r#""id":"zero","id":0"#,
        r#""id":-1,"id":0"#,
        r#""id":[0],"id":0"#,
        r#""id":{"x":1},"id":0"#,
    ] {
        accepted(&doc(&recipe_with("id", members)));
    }
    accepted(&doc(&recipe_with(
        "cuisine",
        r#""cuisine":"Atlantis","cuisine":"Japanese""#,
    )));
    accepted(&doc(&recipe_with(
        "ingredients",
        r#""ingredients":[0,"x"],"ingredients":[1]"#,
    )));
    // ...and a valid first value is lost to an invalid later one.
    rejected(&doc(&recipe_with("id", r#""id":0,"id":"zero""#)));
    rejected(&doc(&recipe_with("id", r#""id":0,"id":1"#)));
    rejected(&doc(&recipe_with(
        "cuisine",
        r#""cuisine":"Japanese","cuisine":"Thai""#,
    )));
    // The same holds for whole sub-documents.
    let twice = doc(RECIPE).replace(r#""recipes":["#, r#""recipes":[{"id":"bad"}],"recipes":["#);
    accepted(&twice);
    let names_twice = doc(RECIPE).replace(
        r#"{"names":["soy","rice"]}"#,
        r#"{"names":[1,2],"names":["soy","rice"]}"#,
    );
    accepted(&names_twice);
    let catalog_lost = doc_with(RECIPE, r#","catalog":{}"#, "");
    rejected(&catalog_lost);
    // A syntax error in a value later overridden is still fatal.
    rejected(&doc(&recipe_with("id", r#""id":[0,,1],"id":0"#)));
}

#[test]
fn every_missing_field_is_an_error() {
    for field in [
        "id",
        "name",
        "cuisine",
        "ingredients",
        "processes",
        "utensils",
    ] {
        rejected(&doc(&recipe_with(field, "")));
    }
    let base = doc(RECIPE);
    for (from, to) in [
        (r#""ingredients":{"names":["soy","rice"]},"#, ""),
        (r#","utensils":{"names":["wok"]}"#, ""),
        (r#"{"names":["heat"]}"#, "{}"),
    ] {
        assert!(base.contains(from));
        rejected(&base.replacen(from, to, 1));
    }
    let no_index = base.split(r#","by_cuisine""#).next().unwrap().to_string() + "}";
    rejected(&no_index);
    let no_recipes = doc(RECIPE).replace(&format!(r#""recipes":[{RECIPE}],"#), "");
    rejected(&no_recipes);
    for bare in ["{}", "[]", "null", "0", "\"corpus\"", ""] {
        rejected(bare);
    }
}

#[test]
fn ids_must_be_u32_integers() {
    // Parse-level range and type errors show up as rejections even
    // where validation would not otherwise look (the utensil list).
    for bad in [
        "[-1]",
        "[4294967296]",
        "[18446744073709551616]",
        "[0.5]",
        "[1e400]",
        "[\"0\"]",
        "[null]",
        "[[0]]",
        "0",
        "{}",
    ] {
        rejected(&doc(&recipe_with(
            "utensils",
            &format!(r#""utensils":{bad}"#),
        )));
    }
    // Out of range for the id but inside u32: a validation error.
    rejected(&doc(&recipe_with("id", r#""id":4294967295"#)));
    // Integral spellings are integers to the reference as well.
    for good in ["[0.0]", "[0e0]", "[-0]", "[-0.0]", "[00]", "[0E+0]"] {
        accepted(&doc(&recipe_with(
            "utensils",
            &format!(r#""utensils":{good}"#),
        )));
    }
    // Malformed numbers are syntax errors, anywhere.
    for bad in ["[+0]", "[-]", "[0e]", "[.5]", "[0x1]"] {
        rejected(&doc(&recipe_with(
            "utensils",
            &format!(r#""utensils":{bad}"#),
        )));
        rejected(&doc(&recipe_with(
            "name",
            &format!(r#""name":"r0","extra":{bad}"#),
        )));
    }
}

#[test]
fn cuisines_are_variant_identifiers() {
    for bad in [
        r#""Atlantis""#,
        r#""japanese""#,
        r#""Chinese and Mongolian""#,
        r#"{"Japanese":null}"#,
        "{}",
        "13",
        "null",
    ] {
        rejected(&doc(&recipe_with(
            "cuisine",
            &format!(r#""cuisine":{bad}"#),
        )));
    }
    // An escaped identifier is the same identifier.
    accepted(&doc(&recipe_with(
        "cuisine",
        r#""cuisine":"J\u0061panese""#,
    )));
}

#[test]
fn string_escapes_follow_the_text_parser() {
    for good in [
        r#""r\"0\\\/\b\f\n\r\t""#,
        r#""é東🌶""#,
        r#""😀 tail""#,
        r#""é\né東😀""#,
        // The text parser reads `\u` digits with `from_str_radix`, which
        // takes a leading `+`; the decoder agrees.
        r#""\u+041""#,
    ] {
        accepted(&doc(&recipe_with("name", &format!(r#""name":{good}"#))));
    }
    for bad in [
        r#""\x""#,
        r#""\ud800""#,
        r#""\udc00""#,
        r#""\ud800A""#,
        r#""\ud800x""#,
        r#""\ud800\n""#,
        r#""\u12""#,
        r#""\u12g4""#,
        r#""\u-041""#,
        r#""\"#,
        "\"tab\tinside\"",
        "\"nul\u{0}inside\"",
        r#""unterminated"#,
    ] {
        rejected(&doc(&recipe_with("name", &format!(r#""name":{bad}"#))));
        // In a key, and in a skipped value, too.
        rejected(&doc(&recipe_with(
            "name",
            &format!(r#""name":"r0",{bad}:1"#),
        )));
        rejected(&doc(&recipe_with(
            "name",
            &format!(r#""name":"r0","extra":[{bad}]"#),
        )));
    }
    // Escaped keys name the same fields.
    accepted(&doc(&recipe_with("name", r#""n\u0061me":"r0""#)));
    accepted(&doc(RECIPE).replace(r#""by_cuisine""#, r#""by_cuisin\u0065""#));
}

#[test]
fn nesting_limit_matches_the_text_parser() {
    // The recipe object sits at depth 2, so an unknown member's value
    // is at depth 3; the text parser refuses values deeper than 128.
    for n in 124..=128 {
        let deep = "[".repeat(n) + &"]".repeat(n);
        let json = doc(&recipe_with(
            "name",
            &format!(r#""name":"r0","deep":{deep}"#),
        ));
        assert_eq!(agree(&json), n <= 126, "nesting {n}");
        let deep_obj = r#"{"a":"#.repeat(n) + "1" + &"}".repeat(n);
        let json = doc(&recipe_with(
            "name",
            &format!(r#""name":"r0","deep":{deep_obj}"#),
        ));
        assert_eq!(agree(&json), n <= 125, "object nesting {n}");
    }
}

#[test]
fn whitespace_and_trailing_text() {
    let base = doc(RECIPE);
    accepted(&format!(" \t\r\n{base} \n"));
    accepted(&base.replace(',', " ,\n\t").replace(':', " : "));
    rejected(&format!("{base} x"));
    rejected(&format!("{base}{{}}"));
    rejected(&format!("\u{feff}{base}"));
    rejected(&base.replace("[0,1]", "[0 1]"));
    rejected(&base.replace(r#""id":0,"#, r#""id":0,,"#));
    rejected(&base.replace(r#""id":0,"#, r#""id" 0,"#));
}

#[test]
fn wrong_value_types_are_rejected() {
    let base = doc(RECIPE);
    let as_object = base.replace(
        &format!(r#""recipes":[{RECIPE}]"#),
        &format!(r#""recipes":{{"x":[{RECIPE}]}}"#),
    );
    assert_ne!(as_object, base);
    rejected(&as_object);
    for (from, to) in [
        (r#"["soy","rice"]"#, r#""soy""#),
        (r#"["soy","rice"]"#, r#"["soy",1]"#),
        (r#""name":"r0""#, r#""name":5"#),
        (r#""name":"r0""#, r#""name":null"#),
        (r#""processes":[0]"#, r#""processes":null"#),
        (r#""by_cuisine":[[]"#, r#""by_cuisine":[{}"#),
    ] {
        assert!(base.contains(from), "{from}");
        rejected(&base.replacen(from, to, 1));
    }
}

#[test]
fn validation_errors_keep_their_variants() {
    let err = io::from_json(&doc(&recipe_with("id", r#""id":7"#))).unwrap_err();
    assert!(
        matches!(err, RecipeDbError::InconsistentId { found: 7, .. }),
        "{err}"
    );
    let err = io::from_json(&doc(&recipe_with("utensils", r#""utensils":[9]"#))).unwrap_err();
    assert!(
        matches!(err, RecipeDbError::DanglingReference { .. }),
        "{err}"
    );
    let err = io::from_json(&doc(RECIPE).replace(",[0],", ",[],")).unwrap_err();
    assert!(matches!(err, RecipeDbError::CorruptIndex { .. }), "{err}");
    let err = io::from_json("{\"catalog\":").unwrap_err();
    assert!(matches!(err, RecipeDbError::Json(_)), "{err}");
    // Syntax errors report their byte offset.
    assert!(err.to_string().contains("at byte 11"), "{err}");
}

/// A corpus of a few hundred bytes that still has escapes, multi-byte
/// UTF-8, every item kind, an empty list and two cuisines.
fn small_corpus_json() -> String {
    let mut b = RecipeDbBuilder::new();
    let cream = b.catalog_mut().intern_ingredient("crème \"fraîche\"");
    let miso = b.catalog_mut().intern_ingredient("東京 miso\t");
    let heat = b.catalog_mut().intern_process("heat");
    let bowl = b.catalog_mut().intern_utensil("bowl");
    b.add_recipe("r0", Cuisine::Japanese, vec![miso], vec![heat], vec![bowl]);
    b.add_recipe("r1", Cuisine::French, vec![cream, miso], vec![heat], vec![]);
    b.add_recipe("r2", Cuisine::Japanese, vec![miso], vec![], vec![bowl]);
    let json = io::to_json(&b.build().unwrap()).unwrap();
    assert!(json.len() < 600, "{} bytes", json.len());
    json
}

#[test]
fn truncation_at_every_offset_is_an_error() {
    let json = small_corpus_json();
    assert!(agree(&json));
    for end in (0..json.len()).filter(|&i| json.is_char_boundary(i)) {
        let cut = &json[..end];
        assert!(!agree(cut), "accepted a truncation at {end}");
        assert!(io::from_json(cut).is_err());
    }
}

#[test]
fn single_byte_substitutions_agree_and_never_panic() {
    let json = small_corpus_json();
    let subs = [
        b'"', b'\\', b'{', b'}', b'[', b']', b',', b':', b' ', b'0', b'9', b'-', b'.', b'e', b'u',
        b'n', b'a', b'Z', 0x1f,
    ];
    let mut accepted = 0;
    let mut total = 0;
    for pos in 0..json.len() {
        for &b in &subs {
            let mut bytes = json.clone().into_bytes();
            if bytes[pos] == b {
                continue;
            }
            bytes[pos] = b;
            let Ok(text) = String::from_utf8(bytes) else {
                continue;
            };
            total += 1;
            if agree(&text) {
                accepted += 1;
            }
        }
    }
    // Most substitutions break the document; some (a digit inside a
    // name, say) leave a valid, different corpus.
    assert!(total > 5_000, "{total} substitutions");
    assert!(
        accepted > 0 && accepted < total / 2,
        "{accepted} of {total}"
    );
}

#[test]
fn generated_corpora_decode_to_the_same_bytes_and_digest() {
    let mut corpora: Vec<RecipeDb> = (1..=4).map(|seed| common::corpus(seed, 300)).collect();
    corpora.push(CorpusGenerator::new(GeneratorConfig::paper_scale(0.004).with_seed(7)).generate());
    for db in &corpora {
        let json = io::to_json(db).unwrap();
        let back = io::from_json(&json).unwrap();
        assert_eq!(io::to_json(&back).unwrap(), json);
        assert_eq!(corpus_digest(&back), corpus_digest(db));
        assert!(agree(&json));
        // Formatting is not content: a pretty-printed body is the same
        // corpus.
        let pretty = serde_json::from_str(&json).unwrap().to_json_pretty();
        let back = io::from_json(&pretty).unwrap();
        assert_eq!(io::to_json(&back).unwrap(), json);
        assert!(agree(&pretty));
        // Name lookups work (the reverse index is built).
        let (id, name) = db.catalog().ingredients().last().unwrap();
        assert_eq!(back.catalog().ingredient(name), Some(id));
    }
}

#[test]
fn read_json_and_load_use_the_decoder() {
    let db = common::corpus(9, 40);
    let json = io::to_json(&db).unwrap();
    let back = io::read_json(json.as_bytes()).unwrap();
    assert_eq!(corpus_digest(&back), corpus_digest(&db));
    assert!(io::read_json(&json.as_bytes()[..json.len() - 1]).is_err());
}
