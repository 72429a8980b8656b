//! Calibrated synthetic corpus generation (the RecipeDB stand-in).
//!
//! See [`spec`] for the per-cuisine calibration and DESIGN.md §2 for why a
//! calibrated synthetic corpus is a faithful substitute for the paper's
//! proprietary RecipeDB snapshot.
//!
//! # Generation model
//!
//! Per recipe of cuisine `c`:
//!
//! 1. Decide utensil presence (the paper: 14,601 of 118,071 recipes carry
//!    no utensil information, so presence ≈ 0.8763).
//! 2. Fire each **motif** of `c` independently with its target support;
//!    motifs containing utensils fire only in utensil-bearing recipes,
//!    with probability scaled by `1 / UTENSIL_PRESENCE` so the
//!    unconditional support still hits the target. A fired motif then
//!    fires each **child** with probability `child.support /
//!    parent.support` (children encode the paper's nested Table I rows).
//! 3. Sample each **staple** independently. Staples whose item appears in
//!    any motif of `c` are dropped — the motif is then the *only* source
//!    of that item, which makes the motif a closed itemset with exactly
//!    its target support (the property the Table I report relies on).
//! 4. Draw a couple of **regional pool** ingredients (shared pools are the
//!    authenticity-clustering signal); items colliding with `c`'s motif
//!    items are rejected so they cannot distort calibrated supports.
//! 5. Top up ingredients / processes / utensils to per-recipe size targets
//!    (~10 / ~12 / ~3, as reported in §III of the paper) from the long
//!    uniform tails, which keeps every tail item far below the 0.2 mining
//!    threshold.
//!
//! Everything is driven by a single master seed; each cuisine gets an
//! independent deterministic stream, so corpora are reproducible and
//! per-cuisine output does not depend on generation order.
//!
//! The size targets, utensil presence, regional draws and the ingredient
//! universe are module constants, so a corpus is a pure function of the
//! three [`GeneratorConfig`] fields: seed, scale and per-cuisine floor.
//! That is why the server regrows a generated corpus instead of storing
//! it: generating one is cheaper than reading its snapshot back.

pub mod pools;
pub mod spec;

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::catalog::Catalog;
use crate::cuisine::Cuisine;
use crate::model::{IngredientId, ItemKind, ProcessId, UtensilId};
use crate::store::{RecipeDb, RecipeDbBuilder};

pub use spec::{all_specs, cuisine_spec, CuisineSpec, MotifSpec, StapleSpec};

/// Fraction of recipes with utensil information in the paper's corpus:
/// `1 − 14,601 / 118,071`.
pub const UTENSIL_PRESENCE: f64 = 1.0 - 14_601.0 / 118_071.0;

/// Mean ingredients per recipe.
const MEAN_INGREDIENTS: f64 = 10.0;
/// Mean processes per recipe.
const MEAN_PROCESSES: f64 = 12.0;
/// Mean utensils per utensil-bearing recipe.
const MEAN_UTENSILS: f64 = 3.0;
/// Regional-pool ingredient draws per recipe.
const REGIONAL_DRAWS: usize = 2;

/// Configuration of the synthetic corpus generator: the three inputs a
/// generated corpus is a pure function of. Everything else the model
/// draws from (per-recipe size targets, utensil presence, the
/// ingredient universe) is a module constant calibrated to the paper.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Master RNG seed; every derived stream is a pure function of it.
    pub seed: u64,
    /// Scale factor on Table I's per-region recipe counts (1.0 = the full
    /// 118k-recipe corpus).
    pub scale: f64,
    /// Per-cuisine floor so tiny scales still produce usable supports
    /// (Korean has only 668 recipes at full scale).
    pub min_recipes_per_cuisine: usize,
}

impl GeneratorConfig {
    /// A corpus at `scale` × the paper's per-region recipe counts.
    pub fn paper_scale(scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        GeneratorConfig {
            seed: 0xC0FFEE,
            scale,
            min_recipes_per_cuisine: 40,
        }
    }

    /// The full-scale corpus (118k recipes — takes a few seconds).
    pub fn full_paper() -> Self {
        Self::paper_scale(1.0)
    }

    /// Replace the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of recipes to generate for one cuisine.
    pub fn recipes_for(&self, cuisine: Cuisine) -> usize {
        let scaled = (cuisine.paper_recipe_count() as f64 * self.scale).round() as usize;
        scaled.max(self.min_recipes_per_cuisine)
    }

    /// Total recipes across all cuisines.
    pub fn total_recipes(&self) -> usize {
        Cuisine::ALL.iter().map(|&c| self.recipes_for(c)).sum()
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self::paper_scale(0.05)
    }
}

/// A compiled (interned, probability-adjusted) motif.
#[derive(Debug, Clone)]
struct CompiledMotif {
    ingredients: Vec<IngredientId>,
    processes: Vec<ProcessId>,
    utensils: Vec<UtensilId>,
    /// Probability of firing, conditional on the recipe satisfying the
    /// utensil requirement (and on the parent having fired, for children).
    prob: f64,
    requires_utensils: bool,
    children: Vec<CompiledMotif>,
}

/// A compiled staple.
#[derive(Debug, Clone)]
struct CompiledStaple {
    item: CompiledItem,
    prob: f64,
}

#[derive(Debug, Clone, Copy)]
enum CompiledItem {
    Ingredient(IngredientId),
    Process(ProcessId),
    Utensil(UtensilId),
}

/// One cuisine's ready-to-sample state.
struct CompiledCuisine {
    cuisine: Cuisine,
    motifs: Vec<CompiledMotif>,
    staples: Vec<CompiledStaple>,
    /// Regional-pool ingredient ids (motif collisions already excluded).
    regional: Vec<IngredientId>,
}

/// The corpus generator. Construct with a [`GeneratorConfig`], call
/// [`CorpusGenerator::generate`].
pub struct CorpusGenerator {
    config: GeneratorConfig,
}

impl CorpusGenerator {
    /// Create a generator.
    pub fn new(config: GeneratorConfig) -> Self {
        CorpusGenerator { config }
    }

    /// Generate the corpus. Deterministic in the config.
    pub fn generate(&self) -> RecipeDb {
        self.generate_with_threads(1)
    }

    /// Generate the corpus on up to `threads` worker threads.
    ///
    /// Every cuisine already draws from an independent RNG stream derived
    /// from the master seed (reproducible and order-free), so each
    /// cuisine's recipe batch is generated in parallel and the batches
    /// are appended to the builder in fixed [`Cuisine::ALL`] order — the
    /// resulting corpus is **bit-for-bit identical** to the sequential
    /// build for any thread count. Cuisines are claimed largest-first so
    /// the heavy batches (Italian is ~25× Korean) never strand a lone
    /// straggler thread at the end of the run.
    pub fn generate_with_threads(&self, threads: usize) -> RecipeDb {
        let cfg = &self.config;
        let mut builder = RecipeDbBuilder::new();
        let specs = spec::all_specs();

        // Intern every "real" name up front so ids are stable regardless of
        // which recipes end up using them.
        let compiled: Vec<CompiledCuisine> = specs
            .iter()
            .map(|s| compile_cuisine(s, builder.catalog_mut()))
            .collect();

        // Long-tail names: enough to reach the target unique-ingredient
        // count on top of the real names.
        let real_names: HashSet<&str> = specs
            .iter()
            .flat_map(|s| s.mentioned_items())
            .filter(|&(k, _)| k == ItemKind::Ingredient)
            .map(|(_, n)| n)
            .chain(
                pools::ALL_POOLS
                    .iter()
                    .flat_map(|p| pools::regional_pool(p).iter().copied()),
            )
            .collect();
        let tail_count =
            pools::TARGET_UNIQUE_INGREDIENTS.saturating_sub(builder.catalog().ingredient_count());
        let tail_names = pools::tail_ingredient_names(tail_count, &real_names);
        let tail_ids: Vec<IngredientId> = tail_names
            .iter()
            .map(|n| builder.catalog_mut().intern_ingredient(n))
            .collect();

        // Processes and utensils: the full fixed universes are interned,
        // but the *fill* pools exclude every name a staple or motif
        // samples explicitly — otherwise the uniform top-up draws would
        // add ~3% to each calibrated probability and push sub-threshold
        // staples onto the mining-threshold knife edge.
        let reserved: HashSet<(ItemKind, &str)> =
            specs.iter().flat_map(|s| s.mentioned_items()).collect();
        let process_names = pools::process_names();
        let process_ids: Vec<ProcessId> = process_names
            .iter()
            .map(|n| builder.catalog_mut().intern_process(n))
            .collect();
        let process_fill: Vec<ProcessId> = process_names
            .iter()
            .zip(&process_ids)
            .filter(|(n, _)| !reserved.contains(&(ItemKind::Process, n.as_str())))
            .map(|(_, &id)| id)
            .collect();
        let utensil_ids: Vec<UtensilId> = pools::UTENSILS
            .iter()
            .map(|n| builder.catalog_mut().intern_utensil(n))
            .collect();
        let utensil_fill: Vec<UtensilId> = pools::UTENSILS
            .iter()
            .zip(&utensil_ids)
            .filter(|(n, _)| !reserved.contains(&(ItemKind::Utensil, **n)))
            .map(|(_, &id)| id)
            .collect();

        // Generate each cuisine's batch independently (workers claim
        // cuisines largest-first), then append in fixed Cuisine::ALL
        // order so recipe ids and the final corpus are identical to a
        // sequential build.
        let claim_order = par::descending_cost_order(
            &compiled
                .iter()
                .map(|cc| cfg.recipes_for(cc.cuisine) as u64)
                .collect::<Vec<_>>(),
        );
        let compiled_ref = &compiled;
        let tail_ref = &tail_ids;
        let process_ref = &process_fill;
        let utensil_ref = &utensil_fill;
        let batches: Vec<CuisineBatch> = par::map_claiming(threads, &claim_order, |c| {
            cuisine_batch(&compiled_ref[c], cfg, tail_ref, process_ref, utensil_ref)
        });

        for (cc, batch) in compiled.iter().zip(batches) {
            for (i, recipe) in batch.into_iter().enumerate() {
                builder.add_recipe(
                    format!("{} recipe {i}", cc.cuisine.name()),
                    cc.cuisine,
                    recipe.0,
                    recipe.1,
                    recipe.2,
                );
            }
        }

        builder
            .build()
            .expect("generated corpus is internally consistent")
    }

    /// The configuration in use.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }
}

fn compile_item(kind: ItemKind, name: &str, catalog: &mut Catalog) -> CompiledItem {
    match kind {
        ItemKind::Ingredient => CompiledItem::Ingredient(catalog.intern_ingredient(name)),
        ItemKind::Process => CompiledItem::Process(catalog.intern_process(name)),
        ItemKind::Utensil => CompiledItem::Utensil(catalog.intern_utensil(name)),
    }
}

fn compile_motif(
    m: &MotifSpec,
    parent_support: Option<f64>,
    catalog: &mut Catalog,
) -> CompiledMotif {
    let mut ingredients = Vec::new();
    let mut processes = Vec::new();
    let mut utensils = Vec::new();
    for &(kind, name) in &m.items {
        match compile_item(kind, name, catalog) {
            CompiledItem::Ingredient(i) => ingredients.push(i),
            CompiledItem::Process(p) => processes.push(p),
            CompiledItem::Utensil(u) => utensils.push(u),
        }
    }
    let requires_utensils = !utensils.is_empty();
    // Conditional probability: divide by the parent's support for children,
    // and by utensil presence when this motif introduces the utensil
    // requirement (a child of a utensil-bearing parent is already
    // conditioned on presence).
    let mut prob = match parent_support {
        Some(ps) => m.support / ps,
        None => m.support,
    };
    if requires_utensils && parent_support.is_none() {
        prob /= UTENSIL_PRESENCE;
    }
    let children = m
        .children
        .iter()
        .map(|c| compile_motif(c, Some(m.support), catalog))
        .collect();
    CompiledMotif {
        ingredients,
        processes,
        utensils,
        prob: prob.min(1.0),
        requires_utensils,
        children,
    }
}

fn compile_cuisine(s: &CuisineSpec, catalog: &mut Catalog) -> CompiledCuisine {
    let motifs: Vec<CompiledMotif> = s
        .motifs
        .iter()
        .map(|m| compile_motif(m, None, catalog))
        .collect();

    // Items claimed by motifs: their staples are dropped (see module docs).
    let motif_items: HashSet<(ItemKind, &str)> =
        s.motifs.iter().flat_map(|m| m.all_items()).collect();

    let staples: Vec<CompiledStaple> = s
        .staples
        .iter()
        .filter(|st| !motif_items.contains(&(st.kind, st.name)))
        .map(|st| {
            let item = compile_item(st.kind, st.name, catalog);
            let prob = match st.kind {
                ItemKind::Utensil => (st.prob / UTENSIL_PRESENCE).min(1.0),
                _ => st.prob,
            };
            CompiledStaple { item, prob }
        })
        .collect();

    // Regional pool, with motif-item collisions rejected at compile time.
    let motif_names: HashSet<&str> = motif_items
        .iter()
        .filter(|&&(k, _)| k == ItemKind::Ingredient)
        .map(|&(_, n)| n)
        .collect();
    let mut regional: Vec<IngredientId> = Vec::new();
    for pool in &s.pools {
        for name in pools::regional_pool(pool) {
            if !motif_names.contains(name) {
                regional.push(catalog.intern_ingredient(name));
            }
        }
    }
    regional.sort_unstable();
    regional.dedup();

    CompiledCuisine {
        cuisine: s.cuisine,
        motifs,
        staples,
        regional,
    }
}

/// One recipe's ingredient, process and utensil lists.
type RecipeItems = (Vec<IngredientId>, Vec<ProcessId>, Vec<UtensilId>);

/// One cuisine's generated recipes, in generation order.
type CuisineBatch = Vec<RecipeItems>;

/// Generate one cuisine's full recipe batch from its own derived RNG
/// stream. Pure in its inputs — safe to run on any thread, in any order.
///
/// Each recipe is drawn into one reused scratch triple and normalized
/// there (sorted, deduplicated), so the batch keeps exact-size lists
/// rather than each recipe's growth capacity.
fn cuisine_batch(
    cc: &CompiledCuisine,
    cfg: &GeneratorConfig,
    tail_ids: &[IngredientId],
    process_fill: &[ProcessId],
    utensil_fill: &[UtensilId],
) -> CuisineBatch {
    let n = cfg.recipes_for(cc.cuisine);
    // Independent stream per cuisine: reproducible and order-free.
    let mut rng = StdRng::seed_from_u64(
        cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cc.cuisine.index() as u64 + 1)),
    );
    let mut scratch = RecipeItems::default();
    let mut batch = Vec::with_capacity(n);
    for _ in 0..n {
        generate_recipe(
            cc,
            tail_ids,
            process_fill,
            utensil_fill,
            &mut rng,
            &mut scratch,
        );
        let (ingredients, processes, utensils) = &mut scratch;
        ingredients.sort_unstable();
        ingredients.dedup();
        processes.sort_unstable();
        processes.dedup();
        utensils.sort_unstable();
        utensils.dedup();
        batch.push((ingredients.to_vec(), processes.to_vec(), utensils.to_vec()));
    }
    batch
}

/// Sample an approximately normal count via Box–Muller, clamped.
fn sample_count(rng: &mut StdRng, mean: f64, sd: f64, min: usize, max: usize) -> usize {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let v = (mean + sd * z).round();
    (v.max(min as f64) as usize).min(max)
}

fn fire_motif(m: &CompiledMotif, has_utensils: bool, out: &mut RecipeItems, rng: &mut StdRng) {
    if m.requires_utensils && !has_utensils {
        return;
    }
    if !rng.gen_bool(m.prob) {
        return;
    }
    out.0.extend_from_slice(&m.ingredients);
    out.1.extend_from_slice(&m.processes);
    out.2.extend_from_slice(&m.utensils);
    for child in &m.children {
        fire_motif(child, has_utensils, out, rng);
    }
}

/// Draw one recipe into `out`, replacing what it held. The lists come
/// out unsorted and may repeat an item.
fn generate_recipe(
    cc: &CompiledCuisine,
    tail_ids: &[IngredientId],
    process_ids: &[ProcessId],
    utensil_ids: &[UtensilId],
    rng: &mut StdRng,
    out: &mut RecipeItems,
) {
    out.0.clear();
    out.1.clear();
    out.2.clear();
    let has_utensils = rng.gen_bool(UTENSIL_PRESENCE);

    for motif in &cc.motifs {
        fire_motif(motif, has_utensils, out, rng);
    }

    for staple in &cc.staples {
        match staple.item {
            CompiledItem::Utensil(u) => {
                if has_utensils && rng.gen_bool(staple.prob) {
                    out.2.push(u);
                }
            }
            CompiledItem::Ingredient(i) => {
                if rng.gen_bool(staple.prob) {
                    out.0.push(i);
                }
            }
            CompiledItem::Process(p) => {
                if rng.gen_bool(staple.prob) {
                    out.1.push(p);
                }
            }
        }
    }

    // Regional flavour draws (below mining threshold by construction).
    if !cc.regional.is_empty() {
        for _ in 0..REGIONAL_DRAWS {
            let idx = rng.gen_range(0..cc.regional.len());
            out.0.push(cc.regional[idx]);
        }
    }

    // Top up to per-recipe size targets from the uniform long tails.
    let ing_target = sample_count(rng, MEAN_INGREDIENTS, 2.0, 3, 24);
    while out.0.len() < ing_target && !tail_ids.is_empty() {
        out.0.push(tail_ids[rng.gen_range(0..tail_ids.len())]);
    }
    let proc_target = sample_count(rng, MEAN_PROCESSES, 2.5, 4, 30);
    while out.1.len() < proc_target && !process_ids.is_empty() {
        out.1.push(process_ids[rng.gen_range(0..process_ids.len())]);
    }
    if has_utensils {
        let ute_target = sample_count(rng, MEAN_UTENSILS, 1.0, 1, 8);
        while out.2.len() < ute_target && !utensil_ids.is_empty() {
            out.2.push(utensil_ids[rng.gen_range(0..utensil_ids.len())]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Item;

    fn small_db(seed: u64) -> RecipeDb {
        CorpusGenerator::new(GeneratorConfig::paper_scale(0.02).with_seed(seed)).generate()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_db(7);
        let b = small_db(7);
        assert_eq!(a.recipe_count(), b.recipe_count());
        let ra = a.recipe(crate::model::RecipeId(100)).unwrap();
        let rb = b.recipe(crate::model::RecipeId(100)).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn parallel_generation_is_bit_identical_to_sequential() {
        let gen = CorpusGenerator::new(GeneratorConfig::paper_scale(0.02).with_seed(2024));
        let seq = gen.generate();
        for threads in [2, 4, 13] {
            let par = gen.generate_with_threads(threads);
            assert_eq!(seq.recipe_count(), par.recipe_count(), "threads {threads}");
            for (a, b) in seq.recipes().zip(par.recipes()) {
                assert_eq!(a, b, "threads {threads}");
            }
            // The serialized corpora must match byte for byte.
            let sj = crate::io::to_json(&seq).unwrap();
            let pj = crate::io::to_json(&par).unwrap();
            assert_eq!(sj, pj, "threads {threads}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_db(7);
        let b = small_db(8);
        let differs = a
            .recipes()
            .zip(b.recipes())
            .any(|(x, y)| x.ingredients != y.ingredients);
        assert!(differs);
    }

    #[test]
    fn all_cuisines_present_with_floored_counts() {
        let cfg = GeneratorConfig::paper_scale(0.02).with_seed(1);
        let db = CorpusGenerator::new(cfg.clone()).generate();
        assert_eq!(db.cuisine_count(), 26);
        for &c in &Cuisine::ALL {
            assert_eq!(db.recipes_in(c), cfg.recipes_for(c), "{c}");
            assert!(db.recipes_in(c) >= cfg.min_recipes_per_cuisine);
        }
        assert_eq!(db.recipe_count(), cfg.total_recipes());
    }

    #[test]
    fn per_recipe_sizes_match_paper_shape() {
        let db = small_db(3);
        let stats = db.stats();
        assert!(
            (8.0..12.5).contains(&stats.avg_ingredients),
            "avg ingredients {}",
            stats.avg_ingredients
        );
        assert!(
            (10.0..14.5).contains(&stats.avg_processes),
            "avg processes {}",
            stats.avg_processes
        );
        assert!(
            (2.0..4.5).contains(&stats.avg_utensils_when_present),
            "avg utensils {}",
            stats.avg_utensils_when_present
        );
        // ~12.4% of recipes lack utensils.
        let frac = stats.recipes_without_utensils as f64 / stats.total_recipes as f64;
        assert!((0.09..0.16).contains(&frac), "utensil-less fraction {frac}");
    }

    #[test]
    fn catalogs_match_paper_universes() {
        let db = small_db(5);
        // Processes and utensils are fully interned up front.
        assert_eq!(db.catalog().process_count(), 268);
        assert_eq!(db.catalog().utensil_count(), 69);
        // Ingredient universe is the full 20,280 (usage varies with scale).
        assert_eq!(
            db.catalog().ingredient_count(),
            pools::TARGET_UNIQUE_INGREDIENTS
        );
    }

    #[test]
    fn primary_signature_supports_land_near_targets() {
        // Statistically adequate corpus: >= 1000 recipes per cuisine keeps
        // the binomial std-err of every support under 0.016, so the 0.06
        // tolerance below is ~4 standard errors.
        let mut cfg = GeneratorConfig::paper_scale(0.2).with_seed(11);
        cfg.min_recipes_per_cuisine = 1000;
        let db = CorpusGenerator::new(cfg).generate();
        for spec in spec::all_specs() {
            // Measure the support of the primary motif's full item set.
            let items: Vec<Item> = spec.motifs[0]
                .items
                .iter()
                .map(|&(k, n)| match k {
                    ItemKind::Ingredient => Item::Ingredient(db.catalog().ingredient(n).unwrap()),
                    ItemKind::Process => Item::Process(db.catalog().process(n).unwrap()),
                    ItemKind::Utensil => Item::Utensil(db.catalog().utensil(n).unwrap()),
                })
                .collect();
            let n_recipes = db.recipes_in(spec.cuisine);
            let hits = db
                .cuisine_recipes(spec.cuisine)
                .filter(|r| items.iter().all(|&it| r.contains(it)))
                .count();
            let support = hits as f64 / n_recipes as f64;
            let target = spec.motifs[0].support;
            assert!(
                (support - target).abs() < 0.06,
                "{}: measured {support:.3} vs target {target:.3}",
                spec.cuisine
            );
        }
    }

    #[test]
    fn sample_count_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let c = sample_count(&mut rng, 10.0, 2.0, 3, 24);
            assert!((3..=24).contains(&c));
        }
    }

    #[test]
    fn config_scaling_and_floor() {
        let cfg = GeneratorConfig::paper_scale(0.5);
        assert_eq!(cfg.recipes_for(Cuisine::Italian), 8291);
        // Korean 668 * 0.01 = 7 -> floored to 40.
        let tiny = GeneratorConfig::paper_scale(0.01);
        assert_eq!(tiny.recipes_for(Cuisine::Korean), 40);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        let _ = GeneratorConfig::paper_scale(0.0);
    }
}
