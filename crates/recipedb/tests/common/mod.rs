//! Seeded corpora for the decoder suites: a small catalog (with names
//! that need escaping and multi-byte UTF-8) and fixed-width recipe
//! names, so the JSON size is set by the recipe count alone.

use recipedb::store::{RecipeDb, RecipeDbBuilder};
use recipedb::Cuisine;

// Only the differential suite decodes through the reference.
#[allow(dead_code)]
pub mod reference;

/// A splitmix64 stream: enough randomness for corpus shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Catalog names that exercise the string decoder: quotes, backslashes,
/// control characters, and one- to four-byte UTF-8.
const SPECIAL: [&str; 6] = [
    "crème \"fraîche\"",
    "back\\slash",
    "tab\there\nnewline",
    "東京 miso",
    "chili 🌶",
    "",
];

/// Corpus `seed` with `recipes` recipes over 6 cuisines and a 194-item
/// catalog (1700 recipes make about 0.2 MB of JSON).
pub fn corpus(seed: u64, recipes: usize) -> RecipeDb {
    let mut rng = Rng(seed);
    let mut b = RecipeDbBuilder::new();
    let ingredients: Vec<_> = (0..160)
        .map(|i| {
            let name = match SPECIAL.get(i) {
                Some(s) => s.to_string(),
                None => format!("ingredient {i:03}"),
            };
            b.catalog_mut().intern_ingredient(&name)
        })
        .collect();
    let processes: Vec<_> = (0..24)
        .map(|i| b.catalog_mut().intern_process(&format!("process {i:02}")))
        .collect();
    let utensils: Vec<_> = (0..10)
        .map(|i| b.catalog_mut().intern_utensil(&format!("utensil {i:02}")))
        .collect();
    let cuisines: Vec<Cuisine> = (0..6)
        .map(|k| Cuisine::ALL[(seed as usize + 5 * k) % Cuisine::COUNT])
        .collect();
    for i in 0..recipes {
        let ing = (0..7 + rng.below(4))
            .map(|_| ingredients[rng.below(ingredients.len())])
            .collect();
        let pro = (0..2 + rng.below(3))
            .map(|_| processes[rng.below(processes.len())])
            .collect();
        let ute = if rng.below(10) < 6 {
            vec![utensils[rng.below(utensils.len())]]
        } else {
            Vec::new()
        };
        b.add_recipe(
            format!("s{seed:03}-r{i:04}"),
            cuisines[i % cuisines.len()],
            ing,
            pro,
            ute,
        );
    }
    b.build().expect("generated corpora are valid")
}
