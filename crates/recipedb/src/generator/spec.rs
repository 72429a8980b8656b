//! Per-cuisine generation specifications, calibrated to Table I of the
//! paper and to the qualitative block structure its dendrograms report.
//!
//! Each cuisine is described by:
//!
//! * **Motifs** — signature item bundles that fire as a unit with a target
//!   support (e.g. `{soy sauce, add, heat}` at 0.28 for Chinese and
//!   Mongolian). A motif may carry *children*: conditional extensions that
//!   fire only when the parent fired, with their own absolute support
//!   target (e.g. the US `{oven}` motif at 0.47 with a
//!   `{bake, preheat, bowl}` child at 0.22, reproducing both of Table I's
//!   US rows). Motif supports are set ~0.01 above the published value so
//!   sampling noise cannot push them under the 0.2 mining threshold.
//! * **Staples** — independent per-item probabilities for the generic
//!   backbone (salt, add, heat, ...). These produce the "highly skewed"
//!   generic patterns the paper remarks on.
//! * **Pools** — regional ingredient pools (below mining threshold) shared
//!   between related cuisines; they drive the authenticity-based
//!   clustering.
//!
//! Calibration rules (see DESIGN.md):
//! * a distinctive item appears in exactly one motif of a cuisine, so the
//!   motif is the *closed* itemset that the Table I report surfaces;
//! * per cuisine, the primary motif's support exceeds every secondary's by
//!   at least 0.02 so the Table I ranking is stable under sampling noise;
//! * cross-cuisine blocks (CJK, butter-Europe, Mediterranean, spice belt,
//!   Latin, Thai/SE-Asia) share motif strings, which is what makes the
//!   pattern-based dendrograms group them; Canadian shares the
//!   cream/skillet/white-wine motifs with French but not the oven-centric
//!   US motifs, reproducing the paper's Canada–France finding.

use crate::cuisine::Cuisine;
use crate::model::ItemKind;

use super::pools;

/// A signature bundle with a target support, plus optional conditional
/// extensions.
#[derive(Debug, Clone)]
pub struct MotifSpec {
    /// The items that fire together.
    pub items: Vec<(ItemKind, &'static str)>,
    /// Absolute target support of the bundle within the cuisine.
    pub support: f64,
    /// Conditional extensions; each child's `support` is an absolute
    /// target and must not exceed the parent's.
    pub children: Vec<MotifSpec>,
}

/// An independently sampled generic item.
#[derive(Debug, Clone)]
pub struct StapleSpec {
    /// Item kind.
    pub kind: ItemKind,
    /// Item display name.
    pub name: &'static str,
    /// Per-recipe inclusion probability.
    pub prob: f64,
}

/// Everything needed to generate one cuisine's recipes.
#[derive(Debug, Clone)]
pub struct CuisineSpec {
    /// Which cuisine this spec describes.
    pub cuisine: Cuisine,
    /// Signature bundles.
    pub motifs: Vec<MotifSpec>,
    /// Generic backbone items.
    pub staples: Vec<StapleSpec>,
    /// Regional ingredient pools this cuisine draws flavour items from.
    pub pools: Vec<&'static str>,
    /// Items of the top pattern Table I reports for this cuisine.
    pub paper_top: &'static [&'static str],
    /// The support Table I reports for that pattern.
    pub paper_support: f64,
    /// The "Number of patterns" column of Table I.
    pub paper_pattern_count: usize,
}

fn ing(name: &'static str) -> (ItemKind, &'static str) {
    (ItemKind::Ingredient, name)
}
fn prc(name: &'static str) -> (ItemKind, &'static str) {
    (ItemKind::Process, name)
}
fn ute(name: &'static str) -> (ItemKind, &'static str) {
    (ItemKind::Utensil, name)
}

fn motif(items: Vec<(ItemKind, &'static str)>, support: f64) -> MotifSpec {
    MotifSpec {
        items,
        support,
        children: Vec::new(),
    }
}

fn motif_with(
    items: Vec<(ItemKind, &'static str)>,
    support: f64,
    children: Vec<MotifSpec>,
) -> MotifSpec {
    MotifSpec {
        items,
        support,
        children,
    }
}

/// The generic backbone shared by every cuisine. Probabilities are chosen
/// so that a handful of generic singletons and pairs clear the 0.2 mining
/// threshold in every cuisine (the paper: "most regions containing patterns
/// having generic ingredients such as 'salt', 'onion' and processes such as
/// 'add' and 'cook'").
fn base_staples() -> Vec<StapleSpec> {
    // Every probability sits well away from the 0.2 mining threshold
    // (and so do the products of the high-probability pairs), so the
    // generic pattern set is stable under sampling noise.
    let mk = |kind, name, prob| StapleSpec { kind, name, prob };
    vec![
        mk(ItemKind::Ingredient, "salt", 0.60),
        mk(ItemKind::Ingredient, "water", 0.30),
        mk(ItemKind::Ingredient, "black pepper", 0.24),
        mk(ItemKind::Ingredient, "onion", 0.15),
        mk(ItemKind::Ingredient, "garlic", 0.15),
        mk(ItemKind::Ingredient, "sugar", 0.15),
        mk(ItemKind::Ingredient, "flour", 0.12),
        mk(ItemKind::Ingredient, "egg", 0.12),
        mk(ItemKind::Ingredient, "milk", 0.12),
        mk(ItemKind::Ingredient, "vegetable oil", 0.24),
        mk(ItemKind::Process, "add", 0.55),
        mk(ItemKind::Process, "heat", 0.50),
        mk(ItemKind::Process, "cook", 0.45),
        mk(ItemKind::Process, "stir", 0.30),
        mk(ItemKind::Process, "mix", 0.30),
        mk(ItemKind::Process, "place", 0.28),
        mk(ItemKind::Process, "combine", 0.25),
        mk(ItemKind::Process, "serve", 0.24),
        mk(ItemKind::Process, "pour", 0.28),
        mk(ItemKind::Process, "cut", 0.26),
        mk(ItemKind::Process, "chop", 0.25),
        mk(ItemKind::Process, "season", 0.24),
        mk(ItemKind::Process, "sprinkle", 0.22),
        mk(ItemKind::Process, "drain", 0.22),
        mk(ItemKind::Process, "boil", 0.16),
        mk(ItemKind::Process, "simmer", 0.16),
        mk(ItemKind::Process, "bake", 0.12),
        mk(ItemKind::Utensil, "bowl", 0.12),
        mk(ItemKind::Utensil, "pan", 0.24),
        mk(ItemKind::Utensil, "pot", 0.24),
        mk(ItemKind::Utensil, "knife", 0.10),
        mk(ItemKind::Utensil, "oven", 0.10),
        mk(ItemKind::Utensil, "skillet", 0.10),
    ]
}

/// Base staples with per-cuisine overrides/additions applied.
fn staples(overrides: &[(ItemKind, &'static str, f64)]) -> Vec<StapleSpec> {
    let mut out = base_staples();
    for &(kind, name, prob) in overrides {
        if let Some(existing) = out.iter_mut().find(|s| s.kind == kind && s.name == name) {
            existing.prob = prob;
        } else {
            out.push(StapleSpec { kind, name, prob });
        }
    }
    out
}

/// Build the calibrated spec for one cuisine.
pub fn cuisine_spec(cuisine: Cuisine) -> CuisineSpec {
    use Cuisine::*;
    use ItemKind::{Process, Utensil};
    match cuisine {
        Australian => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("butter")], 0.25),
                motif(vec![ing("flour")], 0.225),
                motif(vec![ing("sugar")], 0.225),
                motif(vec![ing("egg")], 0.225),
            ],
            staples: staples(&[
                (Utensil, "oven", 0.22),
                (Utensil, "bowl", 0.22),
                (Process, "bake", 0.16),
            ]),
            pools: vec![pools::POOL_EUROPE, pools::POOL_NORTH_AMERICA],
            paper_top: &["butter"],
            paper_support: 0.24,
            paper_pattern_count: 29,
        },
        Belgian => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("butter"), ing("salt")], 0.26),
                motif(vec![ing("flour")], 0.225),
                motif(vec![ing("egg")], 0.225),
                motif(vec![ing("cream")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_EUROPE],
            paper_top: &["butter", "salt"],
            paper_support: 0.24,
            paper_pattern_count: 51,
        },
        Canadian => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("onion")], 0.24),
                motif(vec![ing("cream")], 0.225),
                motif(vec![ute("skillet")], 0.225),
                motif(vec![ing("white wine")], 0.225),
                motif(vec![ing("flour")], 0.225),
                motif(vec![ing("sugar")], 0.225),
                motif(vec![ing("dijon mustard")], 0.225),
            ],
            staples: staples(&[]),
            // Deliberately European (not North-American) pools: the
            // paper's headline finding is that Canadian cuisine clusters
            // with French, reflecting colonial history.
            pools: vec![pools::POOL_EUROPE],
            paper_top: &["onion"],
            paper_support: 0.20,
            paper_pattern_count: 31,
        },
        Caribbean => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("garlic clove")], 0.25),
                motif(vec![ing("onion")], 0.225),
                motif(vec![ing("lime juice")], 0.225),
                motif(vec![ing("thyme")], 0.225),
                motif(vec![ing("allspice")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_LATIN, pools::POOL_AFRICA],
            paper_top: &["garlic clove"],
            paper_support: 0.24,
            paper_pattern_count: 32,
        },
        CentralAmerican => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("onion")], 0.31),
                motif(vec![ing("garlic clove")], 0.225),
                motif(vec![ing("corn")], 0.225),
                motif(vec![ing("lime juice")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_LATIN],
            paper_top: &["onion"],
            paper_support: 0.30,
            paper_pattern_count: 38,
        },
        ChineseAndMongolian => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("soy sauce"), prc("add"), prc("heat")], 0.28),
                motif(vec![ing("rice")], 0.225),
                motif(vec![ing("ginger"), ing("garlic")], 0.225),
                motif(vec![ing("sesame oil")], 0.225),
                motif(vec![ute("wok")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_EAST_ASIA],
            paper_top: &["soy sauce", "add", "heat"],
            paper_support: 0.27,
            paper_pattern_count: 88,
        },
        Deutschland => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("onion")], 0.30),
                motif(vec![ing("butter")], 0.225),
                motif(vec![ing("flour")], 0.225),
                motif(vec![ing("potato")], 0.225),
            ],
            staples: staples(&[(Utensil, "oven", 0.22), (Utensil, "bowl", 0.22)]),
            pools: vec![pools::POOL_EUROPE],
            paper_top: &["onion"],
            paper_support: 0.29,
            paper_pattern_count: 54,
        },
        EasternEuropean => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("cream")], 0.31),
                motif(vec![ing("potato")], 0.225),
                motif(vec![ing("onion")], 0.225),
                motif(vec![ing("dill")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_EUROPE, pools::POOL_NORDIC],
            paper_top: &["cream"],
            paper_support: 0.30,
            paper_pattern_count: 60,
        },
        French => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ute("skillet")], 0.24),
                motif(vec![ing("cream")], 0.225),
                motif(vec![ing("butter")], 0.225),
                motif(vec![ing("white wine")], 0.225),
                motif(vec![ing("flour")], 0.225),
                motif(vec![ing("dijon mustard")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_EUROPE],
            paper_top: &["skillet"],
            paper_support: 0.21,
            paper_pattern_count: 60,
        },
        Greek => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("olive oil")], 0.41),
                motif(vec![ing("garlic")], 0.225),
                motif(vec![ing("tomato")], 0.225),
                motif(vec![ing("lemon juice")], 0.225),
                motif(vec![ing("flour")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_MEDITERRANEAN, pools::POOL_EUROPE],
            paper_top: &["olive oil"],
            paper_support: 0.40,
            paper_pattern_count: 43,
        },
        IndianSubcontinent => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(
                    vec![ing("onion"), prc("add"), prc("heat"), ing("salt")],
                    0.25,
                ),
                motif(vec![ing("cumin"), ing("coriander")], 0.225),
                motif(vec![ing("turmeric")], 0.225),
                motif(vec![ing("garam masala")], 0.225),
                motif(vec![ing("cinnamon"), ing("cardamom")], 0.225),
                motif(vec![ing("green chili")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_SPICE_BELT],
            paper_top: &["onion", "add", "heat", "salt"],
            paper_support: 0.22,
            paper_pattern_count: 119,
        },
        Irish => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("butter")], 0.33),
                motif(vec![ing("potato")], 0.225),
                motif(vec![ing("flour")], 0.225),
                motif(vec![ing("milk")], 0.225),
            ],
            staples: staples(&[(Utensil, "oven", 0.22)]),
            pools: vec![pools::POOL_EUROPE],
            paper_top: &["butter"],
            paper_support: 0.32,
            paper_pattern_count: 41,
        },
        Italian => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("parmesan cheese")], 0.32),
                motif(vec![ing("olive oil")], 0.25),
                motif(vec![ing("garlic")], 0.225),
                motif(vec![ing("tomato")], 0.225),
                motif(vec![ing("pasta")], 0.225),
                motif(vec![ing("basil")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_MEDITERRANEAN],
            paper_top: &["parmesan cheese"],
            paper_support: 0.31,
            paper_pattern_count: 63,
        },
        Japanese => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("soy sauce")], 0.46),
                motif(vec![ing("rice")], 0.225),
                motif(vec![ing("sesame oil")], 0.225),
                motif(vec![ing("ginger"), ing("garlic")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_EAST_ASIA],
            paper_top: &["soy sauce"],
            paper_support: 0.45,
            paper_pattern_count: 45,
        },
        Mexican => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("cilantro")], 0.26),
                motif(vec![ing("onion")], 0.225),
                motif(vec![ing("garlic clove")], 0.225),
                motif(vec![ing("lime juice")], 0.225),
                motif(vec![ing("chili powder")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_LATIN],
            paper_top: &["cilantro"],
            paper_support: 0.25,
            paper_pattern_count: 33,
        },
        RestAfrica => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("onion"), prc("add"), prc("heat")], 0.24),
                motif(vec![ing("cumin")], 0.225),
                motif(vec![ing("tomato")], 0.225),
                motif(vec![ing("green chili")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_AFRICA, pools::POOL_SPICE_BELT],
            paper_top: &["onion", "add", "heat"],
            paper_support: 0.20,
            paper_pattern_count: 51,
        },
        SouthAmerican => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("onion"), ing("salt")], 0.24),
                motif(vec![ing("garlic")], 0.225),
                motif(vec![ing("tomato")], 0.225),
                motif(vec![ing("lime juice")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_LATIN, pools::POOL_MEDITERRANEAN],
            paper_top: &["onion", "salt"],
            paper_support: 0.21,
            paper_pattern_count: 62,
        },
        SoutheastAsian => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("fish sauce")], 0.25),
                motif(vec![ing("coconut milk")], 0.225),
                motif(vec![ing("soy sauce")], 0.225),
                motif(vec![ing("lime juice")], 0.225),
                motif(vec![ing("ginger"), ing("garlic")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_SOUTHEAST_ASIA, pools::POOL_EAST_ASIA],
            paper_top: &["fish sauce"],
            paper_support: 0.24,
            paper_pattern_count: 69,
        },
        SpanishAndPortuguese => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("olive oil")], 0.32),
                motif(vec![ing("garlic")], 0.225),
                motif(vec![ing("tomato")], 0.225),
                motif(vec![ing("paprika")], 0.225),
                motif(vec![ing("onion"), ing("salt")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_MEDITERRANEAN],
            paper_top: &["olive oil"],
            paper_support: 0.31,
            paper_pattern_count: 67,
        },
        Thai => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("fish sauce"), prc("add"), prc("heat")], 0.26),
                motif(vec![ing("coconut milk")], 0.225),
                motif(vec![ing("soy sauce")], 0.225),
                motif(vec![ing("lime juice")], 0.225),
                motif(vec![ing("ginger"), ing("garlic")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_SOUTHEAST_ASIA, pools::POOL_EAST_ASIA],
            paper_top: &["fish sauce", "add", "heat"],
            paper_support: 0.23,
            paper_pattern_count: 73,
        },
        Korean => CuisineSpec {
            cuisine,
            motifs: vec![
                motif_with(
                    vec![ing("soy sauce"), ing("sesame oil")],
                    0.35,
                    vec![motif(vec![ing("green onion")], 0.245)],
                ),
                motif(vec![ing("rice")], 0.225),
                motif(vec![ing("ginger"), ing("garlic")], 0.225),
                motif(vec![ing("gochujang")], 0.225),
            ],
            // Salt lowered so {soy sauce, sesame oil} x salt products stay
            // clearly below the mining threshold (0.35 x 0.5 = 0.175).
            staples: staples(&[(ItemKind::Ingredient, "salt", 0.50)]),
            pools: vec![pools::POOL_EAST_ASIA],
            paper_top: &["soy sauce", "sesame oil"],
            paper_support: 0.34,
            paper_pattern_count: 85,
        },
        MiddleEastern => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("salt"), ute("bowl")], 0.26),
                motif(vec![ing("lemon juice")], 0.23),
                motif(vec![ing("olive oil")], 0.225),
                motif(vec![ing("cumin")], 0.225),
                motif(vec![ing("garlic")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_MIDDLE_EAST, pools::POOL_SPICE_BELT],
            paper_top: &["salt", "bowl"],
            paper_support: 0.22,
            paper_pattern_count: 46,
        },
        NorthernAfrica => CuisineSpec {
            cuisine,
            motifs: vec![
                motif_with(
                    vec![ing("cumin")],
                    0.40,
                    vec![
                        motif(vec![ing("olive oil")], 0.225),
                        motif(vec![ing("salt")], 0.225),
                        motif(vec![ing("cinnamon")], 0.225),
                    ],
                ),
                // The salt-extended saute base makes Northern Africa the
                // pattern-richest cuisine (as in the paper: 134 patterns)
                // and shares the whole subset lattice with the Indian
                // primary motif — the basis of the India–North-Africa
                // grouping the paper highlights.
                motif(
                    vec![ing("onion"), prc("add"), prc("heat"), ing("salt")],
                    0.225,
                ),
                motif(vec![ing("coriander")], 0.225),
                motif(vec![ing("lemon juice")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_SPICE_BELT, pools::POOL_MIDDLE_EAST],
            paper_top: &["cumin", "olive oil"],
            paper_support: 0.22,
            paper_pattern_count: 134,
        },
        Scandinavian => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("butter"), ing("salt")], 0.25),
                motif(vec![ing("salt"), ing("sugar")], 0.225),
                motif(vec![ing("flour")], 0.225),
                motif(vec![ing("dill")], 0.225),
            ],
            staples: staples(&[(Utensil, "oven", 0.22), (Utensil, "bowl", 0.22)]),
            pools: vec![pools::POOL_NORDIC, pools::POOL_EUROPE],
            paper_top: &["butter", "salt"],
            paper_support: 0.22,
            paper_pattern_count: 52,
        },
        UK => CuisineSpec {
            cuisine,
            motifs: vec![
                motif(vec![ing("butter")], 0.38),
                motif(vec![ing("flour")], 0.225),
                motif(vec![ing("sugar")], 0.225),
                motif(vec![ing("egg")], 0.225),
                motif(vec![ing("milk")], 0.225),
            ],
            staples: staples(&[
                (Utensil, "oven", 0.27),
                (Utensil, "bowl", 0.22),
                (Process, "bake", 0.16),
            ]),
            pools: vec![pools::POOL_EUROPE],
            paper_top: &["butter"],
            paper_support: 0.37,
            paper_pattern_count: 45,
        },
        US => CuisineSpec {
            cuisine,
            motifs: vec![
                motif_with(
                    vec![ute("oven")],
                    0.47,
                    vec![motif(vec![prc("bake"), prc("preheat"), ute("bowl")], 0.23)],
                ),
                motif(vec![ing("onion")], 0.25),
                motif(vec![ing("flour")], 0.225),
                motif(vec![ing("sugar")], 0.225),
                motif(vec![ing("cheddar cheese")], 0.225),
            ],
            staples: staples(&[]),
            pools: vec![pools::POOL_NORTH_AMERICA],
            paper_top: &["oven"],
            paper_support: 0.46,
            paper_pattern_count: 67,
        },
    }
}

/// Specs for all 26 cuisines, in Table I order.
pub fn all_specs() -> Vec<CuisineSpec> {
    Cuisine::ALL.iter().map(|&c| cuisine_spec(c)).collect()
}

impl MotifSpec {
    /// All items reachable from this motif including children.
    pub fn all_items(&self) -> Vec<(ItemKind, &'static str)> {
        let mut out = self.items.clone();
        for c in &self.children {
            out.extend(c.all_items());
        }
        out
    }
}

impl CuisineSpec {
    /// Every distinct item name mentioned by this spec (motifs + staples).
    pub fn mentioned_items(&self) -> Vec<(ItemKind, &'static str)> {
        let mut out: Vec<(ItemKind, &'static str)> = Vec::new();
        for m in &self.motifs {
            out.extend(m.all_items());
        }
        for s in &self.staples {
            out.push((s.kind, s.name));
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cuisine_has_a_spec_with_sane_probabilities() {
        for spec in all_specs() {
            assert!(!spec.motifs.is_empty(), "{}: no motifs", spec.cuisine);
            for m in &spec.motifs {
                assert!(
                    (0.0..=1.0).contains(&m.support),
                    "{}: motif support {}",
                    spec.cuisine,
                    m.support
                );
                assert!(
                    m.support >= 0.20,
                    "{}: motif below mining threshold",
                    spec.cuisine
                );
                for c in &m.children {
                    assert!(
                        c.support <= m.support + 1e-12,
                        "{}: child support {} exceeds parent {}",
                        spec.cuisine,
                        c.support,
                        m.support
                    );
                }
            }
            for s in &spec.staples {
                assert!(
                    (0.0..=1.0).contains(&s.prob),
                    "{}: staple prob",
                    spec.cuisine
                );
            }
            assert!(!spec.pools.is_empty(), "{}: no pools", spec.cuisine);
            assert!(!spec.paper_top.is_empty());
        }
    }

    #[test]
    fn primary_motif_leads_secondaries_by_margin() {
        // The first motif is the Table I primary; it must exceed every
        // other motif's support by >= 0.015 so the ranking is noise-stable
        // at the paper's per-cuisine corpus sizes.
        for spec in all_specs() {
            let primary = spec.motifs[0].support;
            for m in &spec.motifs[1..] {
                assert!(
                    primary >= m.support + 0.015 - 1e-12,
                    "{}: primary {} too close to secondary {}",
                    spec.cuisine,
                    primary,
                    m.support
                );
            }
        }
    }

    #[test]
    fn primary_motif_matches_paper_top_items() {
        for spec in all_specs() {
            let primary: std::collections::BTreeSet<&str> =
                spec.motifs[0].all_items().iter().map(|&(_, n)| n).collect();
            let paper: std::collections::BTreeSet<&str> = spec.paper_top.iter().copied().collect();
            assert!(
                paper.is_subset(&primary),
                "{}: paper top {:?} not within primary motif {:?}",
                spec.cuisine,
                paper,
                primary
            );
            // Calibration sets the target above the published support —
            // knife-edge rows (paper support 0.20-0.23) are lifted to at
            // least 0.24 so sampling noise cannot drop them under the 0.2
            // mining threshold; the bias never exceeds 0.04 and is
            // documented in EXPERIMENTS.md. Motifs with children (Korean,
            // Northern Africa, US) encode several Table I rows at once;
            // their published supports attach to the child bundles, so the
            // parent is exempt from the delta check.
            if spec.motifs[0].children.is_empty() {
                let delta = spec.motifs[0].support - spec.paper_support;
                assert!(
                    (0.0..=0.04 + 1e-12).contains(&delta),
                    "{}: support target {} vs paper {}",
                    spec.cuisine,
                    spec.motifs[0].support,
                    spec.paper_support
                );
            }
        }
    }

    #[test]
    fn regional_pools_resolve() {
        for spec in all_specs() {
            for pool in &spec.pools {
                assert!(
                    !super::super::pools::regional_pool(pool).is_empty(),
                    "{}: pool {pool} unknown",
                    spec.cuisine
                );
            }
        }
    }

    #[test]
    fn canada_shares_french_not_us_signatures() {
        // The headline qualitative claim of the paper: Canadian clusters
        // with French, not with US, despite geographic proximity.
        let canadian = cuisine_spec(Cuisine::Canadian);
        let french = cuisine_spec(Cuisine::French);
        let us = cuisine_spec(Cuisine::US);
        let names = |s: &CuisineSpec| -> std::collections::BTreeSet<&str> {
            s.motifs
                .iter()
                .flat_map(|m| m.all_items())
                .map(|(_, n)| n)
                .collect()
        };
        let ca = names(&canadian);
        let fr = names(&french);
        let usn = names(&us);
        let ca_fr = ca.intersection(&fr).count();
        let ca_us = ca.intersection(&usn).count();
        assert!(
            ca_fr > ca_us,
            "Canada∩France {ca_fr} must exceed Canada∩US {ca_us}"
        );
    }

    #[test]
    fn india_shares_spice_belt_with_northern_africa() {
        let india = cuisine_spec(Cuisine::IndianSubcontinent);
        let nafrica = cuisine_spec(Cuisine::NorthernAfrica);
        let items = |s: &CuisineSpec| -> std::collections::BTreeSet<&str> {
            s.motifs
                .iter()
                .flat_map(|m| m.all_items())
                .map(|(_, n)| n)
                .collect()
        };
        let shared: Vec<&str> = items(&india)
            .intersection(&items(&nafrica))
            .copied()
            .collect();
        assert!(
            shared.contains(&"cumin") && shared.contains(&"cinnamon"),
            "spice belt must share cumin and cinnamon, got {shared:?}"
        );
        assert!(
            india.pools.iter().any(|p| nafrica.pools.contains(p)),
            "India and Northern Africa must share a regional pool"
        );
    }

    #[test]
    fn mentioned_items_are_deduplicated() {
        let spec = cuisine_spec(Cuisine::US);
        let items = spec.mentioned_items();
        let mut dedup = items.clone();
        dedup.dedup();
        assert_eq!(items, dedup);
        assert!(items.contains(&(ItemKind::Utensil, "oven")));
    }
}
