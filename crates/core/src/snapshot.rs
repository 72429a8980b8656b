//! Versioned, checksummed snapshot codec for atlases and corpora.
//!
//! This is the serialization half of the `atlas-store` subsystem. A
//! snapshot is framed as
//!
//! ```text
//! magic "CUISSNAP" · version u32 · kind u8 · payload · SHA-256 trailer
//! ```
//!
//! with every integer little-endian and every `f64` written via
//! [`f64::to_bits`]. The trailing SHA-256 covers everything before it
//! and is checked before any header field is trusted; decoding is fully
//! bounds-checked and returns [`SnapshotError`] on any damage
//! (truncation, bit flips, wrong kind) — it never panics, so a corrupt
//! file degrades to a rebuild rather than a crash. Each kind carries
//! its own layout version ([`ATLAS_VERSION`], [`CORPUS_VERSION`]): a
//! frame of another version is a miss, not damage.
//!
//! A corpus snapshot is the corpus JSON plus provenance. An atlas
//! snapshot stores only what is costly to redo: the mined patterns and
//! the authenticity distances (whose input, the cuisines × ingredients
//! authenticity matrix, is megabytes), next to the config and the active
//! cuisines. It holds no timings, so a frame is a pure function of its
//! atlas. [`decode_atlas`] regrows the rest — features, pattern
//! distances, trees — with the build's own code, and the authenticity
//! matrix is rebuilt lazily on first use.
//!
//! The server stores only what it cannot regrow: uploaded corpora and
//! their atlases. A generated corpus is a pure function of its
//! [`GeneratorConfig`], and generating it is cheaper than decoding its
//! corpus frame, so generated atlases are rebuilt, never stored
//! (DESIGN.md §10). [`encode_corpus`] and [`CorpusOrigin::Generated`]
//! remain for tools that frame a generated corpus themselves.
//!
//! Two self-checks run beyond the checksum:
//!
//! * an atlas snapshot records the corpus digest it was built from, and
//!   [`decode_atlas`] refuses to marry it to a different corpus;
//! * the four Newick tree serializations are stored, and decode grows
//!   each tree from the regrown (or stored) distances and compares —
//!   catching any drift in the features, distances or linkage between
//!   the writer and the reader.

use std::fmt;
use std::sync::Arc;

use clustering::condensed::CondensedMatrix;
use clustering::distance::Metric;
use clustering::hac::LinkageMethod;
use pattern_mining::itemset::{FrequentItemset, Itemset};
use recipedb::digest::{corpus_digest, Sha256};
use recipedb::generator::GeneratorConfig;
use recipedb::{Cuisine, RecipeDb};

use crate::patterns::CuisinePatterns;
use crate::pipeline::{AtlasConfig, CuisineAtlas};

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"CUISSNAP";

/// Layout version of atlas frames; bumped whenever a stored stage's
/// output or its layout changes.
pub const ATLAS_VERSION: u32 = 3;

/// Layout version of corpus frames; moves independently of
/// [`ATLAS_VERSION`], so stored uploads outlive atlas layout changes.
pub const CORPUS_VERSION: u32 = 1;

const CHECKSUM_LEN: usize = 32;
const HEADER_LEN: usize = MAGIC.len() + 4 + 1;

/// What a snapshot frame contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A fully built [`CuisineAtlas`].
    Atlas,
    /// A corpus (`RecipeDb` JSON plus provenance).
    Corpus,
}

impl SnapshotKind {
    fn code(self) -> u8 {
        match self {
            SnapshotKind::Atlas => 1,
            SnapshotKind::Corpus => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(SnapshotKind::Atlas),
            2 => Some(SnapshotKind::Corpus),
            _ => None,
        }
    }

    /// The layout version this build writes and reads for the kind.
    fn version(self) -> u32 {
        match self {
            SnapshotKind::Atlas => ATLAS_VERSION,
            SnapshotKind::Corpus => CORPUS_VERSION,
        }
    }
}

/// Where a persisted corpus came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusOrigin {
    /// Generated in-process from an [`AtlasConfig`]'s generator knobs.
    Generated,
    /// Uploaded through `POST /corpus`.
    Uploaded,
}

impl CorpusOrigin {
    fn code(self) -> u8 {
        match self {
            CorpusOrigin::Generated => 0,
            CorpusOrigin::Uploaded => 1,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(CorpusOrigin::Generated),
            1 => Some(CorpusOrigin::Uploaded),
            _ => None,
        }
    }
}

/// Why a snapshot could not be decoded. Every variant is a recoverable
/// "rebuild instead" signal — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the structure it promised.
    Truncated,
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The frame's layout version is not the one this build speaks for
    /// its kind ([`ATLAS_VERSION`] or [`CORPUS_VERSION`]).
    UnsupportedVersion(u32),
    /// The frame holds a different [`SnapshotKind`] than requested.
    WrongKind,
    /// The trailing SHA-256 does not match the content (bit rot, torn
    /// write, tampering).
    ChecksumMismatch,
    /// The checksum held but a field is structurally invalid.
    Malformed(String),
    /// The snapshot references a different corpus than the one supplied
    /// (atlas) or embeds a digest its own content does not hash to
    /// (corpus).
    CorpusMismatch {
        /// The digest the caller expected (or the embedded claim).
        expected: String,
        /// The digest actually found (or recomputed).
        got: String,
    },
    /// A tree regrown from the decoded distance matrices did not
    /// reproduce the stored Newick serialization.
    SelfCheckFailed(String),
}

impl SnapshotError {
    /// Whether this error means the file's *content* is damaged (torn
    /// write, bit rot, tampering) — the conditions a store should
    /// quarantine. The other variants describe a snapshot that is
    /// internally sound but unusable *by this reader* — a version or
    /// kind from a different build, or a corpus this process doesn't
    /// hold. A rollback to the build that wrote such a file can still
    /// use it, so callers treat it as a miss and leave it in place
    /// rather than quarantine it.
    pub fn is_corruption(&self) -> bool {
        match self {
            SnapshotError::Truncated
            | SnapshotError::BadMagic
            | SnapshotError::ChecksumMismatch
            | SnapshotError::Malformed(_)
            | SnapshotError::SelfCheckFailed(_) => true,
            SnapshotError::UnsupportedVersion(_)
            | SnapshotError::WrongKind
            | SnapshotError::CorpusMismatch { .. } => false,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::WrongKind => write!(f, "snapshot holds a different payload kind"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::CorpusMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot corpus mismatch: expected {expected}, got {got}"
                )
            }
            SnapshotError::SelfCheckFailed(what) => {
                write!(f, "snapshot self-check failed: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------
// Frame writer / reader
// ---------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn frame(kind: SnapshotKind) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&kind.version().to_le_bytes());
        buf.push(kind.code());
        Writer { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u32(v);
        }
    }

    fn seal(mut self) -> Vec<u8> {
        let mut hasher = Sha256::new();
        hasher.update(&self.buf);
        self.buf.extend_from_slice(&hasher.finalize());
        self.buf
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validate magic, the trailing checksum, kind and the kind's
    /// version, in that order, and return a reader positioned at the
    /// payload. The checksum comes before the header fields it covers,
    /// so a damaged version field is corruption, not another build's
    /// file.
    fn open(bytes: &'a [u8], kind: SnapshotKind) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let content = &bytes[..bytes.len() - CHECKSUM_LEN];
        let mut hasher = Sha256::new();
        hasher.update(content);
        if hasher.finalize() != bytes[bytes.len() - CHECKSUM_LEN..] {
            return Err(SnapshotError::ChecksumMismatch);
        }
        match SnapshotKind::from_code(bytes[HEADER_LEN - 1]) {
            Some(k) if k == kind => {}
            _ => return Err(SnapshotError::WrongKind),
        }
        let version = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
        if version != kind.version() {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        Ok(Reader {
            buf: content,
            pos: HEADER_LEN,
        })
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length prefix and sanity-check it against the bytes left,
    /// so a bit-flipped length cannot trigger a huge allocation.
    fn len(&mut self, elem_size: usize, what: &str) -> Result<usize, SnapshotError> {
        let n = usize::try_from(self.u64()?)
            .map_err(|_| SnapshotError::Malformed(format!("{what} length overflows")))?;
        match n.checked_mul(elem_size) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(SnapshotError::Malformed(format!(
                "{what} length {n} exceeds remaining payload"
            ))),
        }
    }

    fn bytes(&mut self, what: &str) -> Result<&'a [u8], SnapshotError> {
        let n = self.len(1, what)?;
        self.take(n)
    }

    fn str(&mut self, what: &str) -> Result<String, SnapshotError> {
        let raw = self.bytes(what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| SnapshotError::Malformed(format!("{what} is not UTF-8")))
    }

    fn f64s(&mut self, what: &str) -> Result<Vec<f64>, SnapshotError> {
        let n = self.len(8, what)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn u32s(&mut self, what: &str) -> Result<Vec<u32>, SnapshotError> {
        let n = self.len(4, what)?;
        (0..n).map(|_| self.u32()).collect()
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing payload bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Atlas snapshots
// ---------------------------------------------------------------------

/// The cheap-to-read prefix of an atlas snapshot.
#[derive(Debug, Clone)]
pub struct AtlasPeek {
    /// Digest of the corpus the atlas was built from.
    pub corpus_digest: String,
}

/// Serialize a built atlas. `corpus_digest` is the
/// [`corpus_digest`] of the atlas's
/// corpus; it is the snapshot's corpus reference, checked again at
/// decode time.
pub fn encode_atlas(atlas: &CuisineAtlas, corpus_digest: &str) -> Vec<u8> {
    let mut w = Writer::frame(SnapshotKind::Atlas);
    w.str(corpus_digest);

    // Config: the generator inputs plus the pipeline knobs that shape
    // results — enough to re-derive the cache key this snapshot answers
    // for. `build_threads` is the restoring server's, so it is not
    // stored.
    let cfg = atlas.config();
    let g = &cfg.corpus;
    w.u64(g.seed);
    w.f64(g.scale);
    w.u64(g.min_recipes_per_cuisine as u64);
    w.f64(cfg.min_support);
    w.f64(cfg.generic_fraction);
    w.u64(cfg.top_k as u64);
    w.str(cfg.linkage.name());

    // Active cuisines, artifact-index order.
    let cuisines = atlas.cuisines();
    w.u64(cuisines.len() as u64);
    for &c in cuisines {
        w.u32(c.index() as u32);
    }

    // Mined patterns, one block per active cuisine.
    for cp in atlas.patterns() {
        w.u32(cp.cuisine.index() as u32);
        w.u64(cp.n_recipes as u64);
        w.u64(cp.itemsets.len() as u64);
        for f in &cp.itemsets {
            w.u64(f.count);
            w.u32s(f.items.items());
        }
    }

    // Authenticity distances: the one matrix whose input (the
    // authenticity matrix) costs more to rebuild than to store.
    let authenticity = atlas.authenticity_tree();
    w.u64(authenticity.distances.len() as u64);
    w.f64s(authenticity.distances.data());

    // Newick serializations, the decode-time self-check.
    for tree in newick_trees(atlas) {
        w.str(&tree);
    }

    w.seal()
}

/// The four stored trees' Newick strings, in snapshot order: the three
/// pattern metrics, then authenticity.
fn newick_trees(atlas: &CuisineAtlas) -> [String; 4] {
    let labels: Vec<String> = atlas
        .cuisines()
        .iter()
        .map(|c| c.name().to_string())
        .collect();
    [
        atlas.pattern_tree(Metric::Euclidean),
        atlas.pattern_tree(Metric::Cosine),
        atlas.pattern_tree(Metric::Jaccard),
        atlas.authenticity_tree(),
    ]
    .map(|tree| tree.dendrogram.to_newick(&labels))
}

/// Read only an atlas snapshot's corpus reference (after full frame
/// validation). The store's boot scan indexes each atlas file under the
/// corpus it references with this, so deleting a corpus finds its
/// atlases and the disk budget never evicts a corpus a stored atlas
/// still needs.
pub fn peek_atlas(bytes: &[u8]) -> Result<AtlasPeek, SnapshotError> {
    let mut r = Reader::open(bytes, SnapshotKind::Atlas)?;
    Ok(AtlasPeek {
        corpus_digest: r.str("corpus digest")?,
    })
}

/// Decode an atlas snapshot against the corpus it was built from.
///
/// `db` must be the corpus whose digest is `expected_digest` (the
/// caller has either just decoded it from a corpus snapshot or holds it
/// in the registry); the snapshot's own corpus reference must agree.
/// `build_threads` becomes the restored atlas's wall-clock knob (it
/// never affects results). The atlas is assembled from the stored
/// patterns by the build's own code (`CuisineAtlas::from_patterns`);
/// the four trees are then grown from its distances and compared to the
/// stored Newick strings before anything is returned.
pub fn decode_atlas(
    bytes: &[u8],
    db: Arc<RecipeDb>,
    expected_digest: &str,
    build_threads: usize,
) -> Result<CuisineAtlas, SnapshotError> {
    let mut r = Reader::open(bytes, SnapshotKind::Atlas)?;

    let stored_digest = r.str("corpus digest")?;
    if stored_digest != expected_digest {
        return Err(SnapshotError::CorpusMismatch {
            expected: expected_digest.to_string(),
            got: stored_digest,
        });
    }

    let config = AtlasConfig {
        corpus: GeneratorConfig {
            seed: r.u64()?,
            scale: r.f64()?,
            min_recipes_per_cuisine: r.u64()? as usize,
        },
        min_support: r.f64()?,
        generic_fraction: r.f64()?,
        top_k: r.u64()? as usize,
        linkage: {
            let name = r.str("linkage")?;
            LinkageMethod::from_name(&name).ok_or_else(|| {
                SnapshotError::Malformed(format!("unknown linkage method {name:?}"))
            })?
        },
        build_threads,
    };

    let n = r.len(4, "cuisine list")?;
    let mut cuisines = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.u32()? as usize;
        cuisines.push(
            Cuisine::from_index(idx)
                .ok_or_else(|| SnapshotError::Malformed(format!("cuisine index {idx}")))?,
        );
    }
    if cuisines.is_empty() {
        return Err(SnapshotError::Malformed("empty cuisine list".into()));
    }

    let mut patterns = Vec::with_capacity(n);
    for &cuisine in &cuisines {
        let idx = r.u32()? as usize;
        if idx != cuisine.index() {
            return Err(SnapshotError::Malformed(format!(
                "pattern block for cuisine index {idx}, expected {}",
                cuisine.index()
            )));
        }
        let n_recipes = r.u64()? as usize;
        let n_itemsets = r.len(12, "itemset list")?;
        let mut itemsets = Vec::with_capacity(n_itemsets);
        for _ in 0..n_itemsets {
            let count = r.u64()?;
            let items = r.u32s("itemset")?;
            itemsets.push(FrequentItemset {
                items: Itemset::new(items),
                count,
            });
        }
        patterns.push(CuisinePatterns {
            cuisine,
            n_recipes,
            itemsets,
        });
    }

    let n_dist = r.u64()?;
    if n_dist != n as u64 {
        return Err(SnapshotError::Malformed(format!(
            "authenticity distances over {n_dist} leaves, expected {n}"
        )));
    }
    let data = r.f64s("authenticity distances")?;
    if data.len() != n * (n - 1) / 2 {
        return Err(SnapshotError::Malformed(format!(
            "authenticity distances: {} entries for {n} leaves",
            data.len()
        )));
    }
    let authenticity_dist = CondensedMatrix::from_condensed(n, data);

    let stored_newick = [
        r.str("newick")?,
        r.str("newick")?,
        r.str("newick")?,
        r.str("newick")?,
    ];
    r.finish()?;

    let mut atlas = CuisineAtlas::from_patterns(db, cuisines, &config, patterns);
    atlas.restore(authenticity_dist);

    // Self-check: the trees grown from the regrown features, the pattern
    // distances they fill the caches with, and the stored authenticity
    // distances must reproduce the stored Newick serializations.
    let names = [
        "patterns/euclidean",
        "patterns/cosine",
        "patterns/jaccard",
        "authenticity/euclidean",
    ];
    for ((what, grown), stored) in names.iter().zip(newick_trees(&atlas)).zip(&stored_newick) {
        if grown != *stored {
            return Err(SnapshotError::SelfCheckFailed(format!(
                "{what} tree does not reproduce its stored newick"
            )));
        }
    }
    Ok(atlas)
}

// ---------------------------------------------------------------------
// Corpus snapshots
// ---------------------------------------------------------------------

/// A decoded corpus snapshot.
#[derive(Debug)]
pub struct CorpusSnapshot {
    /// The corpus's semantic digest (recomputed and verified on decode).
    pub digest: String,
    /// Where the corpus came from.
    pub origin: CorpusOrigin,
    /// Size of the original upload body in bytes (0 for generated
    /// corpora); restored into the registry's memory accounting.
    pub upload_bytes: u64,
    /// The corpus itself.
    pub db: RecipeDb,
}

/// The cheap-to-read prefix of a corpus snapshot.
#[derive(Debug, Clone)]
pub struct CorpusPeek {
    /// The corpus's semantic digest (as claimed by the file; the full
    /// decode verifies it).
    pub digest: String,
    /// Where the corpus came from.
    pub origin: CorpusOrigin,
    /// Size of the original upload body in bytes.
    pub upload_bytes: u64,
}

/// Serialize a corpus with its provenance. The embedded digest is
/// computed here from `db` itself, making the file self-describing.
pub fn encode_corpus(
    db: &RecipeDb,
    origin: CorpusOrigin,
    upload_bytes: u64,
) -> Result<Vec<u8>, SnapshotError> {
    let json = recipedb::io::to_json(db)
        .map_err(|e| SnapshotError::Malformed(format!("corpus serialization: {e}")))?;
    Ok(frame_corpus_json(
        &corpus_digest(db),
        origin,
        upload_bytes,
        json.as_bytes(),
    ))
}

/// Frame corpus JSON that is already known to decode to a corpus with
/// digest `digest` — an upload body that has just been parsed and
/// validated — without serializing the corpus again. Any formatting
/// [`recipedb::io::from_json`] accepts may be framed, since
/// [`decode_corpus`] re-parses the JSON and re-verifies the digest.
pub fn frame_corpus_json(
    digest: &str,
    origin: CorpusOrigin,
    upload_bytes: u64,
    json: &[u8],
) -> Vec<u8> {
    let mut w = Writer::frame(SnapshotKind::Corpus);
    // Header fields, two length prefixes and the checksum, so the JSON
    // is copied once into a buffer of its final size.
    w.buf
        .reserve_exact(digest.len() + 1 + 3 * 8 + json.len() + CHECKSUM_LEN);
    w.str(digest);
    w.u8(origin.code());
    w.u64(upload_bytes);
    w.bytes(json);
    w.seal()
}

/// Read a corpus snapshot's provenance without parsing the corpus JSON
/// (the frame checksum is still fully verified).
pub fn peek_corpus(bytes: &[u8]) -> Result<CorpusPeek, SnapshotError> {
    let mut r = Reader::open(bytes, SnapshotKind::Corpus)?;
    Ok(CorpusPeek {
        digest: r.str("corpus digest")?,
        origin: CorpusOrigin::from_code(r.u8()?)
            .ok_or_else(|| SnapshotError::Malformed("corpus origin".into()))?,
        upload_bytes: r.u64()?,
    })
}

/// Decode a corpus snapshot, recomputing its digest from the parsed
/// corpus and refusing the file if it does not match the embedded claim.
pub fn decode_corpus(bytes: &[u8]) -> Result<CorpusSnapshot, SnapshotError> {
    let mut r = Reader::open(bytes, SnapshotKind::Corpus)?;
    let digest = r.str("corpus digest")?;
    let origin = CorpusOrigin::from_code(r.u8()?)
        .ok_or_else(|| SnapshotError::Malformed("corpus origin".into()))?;
    let upload_bytes = r.u64()?;
    let json = r.bytes("corpus json")?;
    r.finish()?;
    let json = std::str::from_utf8(json)
        .map_err(|_| SnapshotError::Malformed("corpus json is not UTF-8".into()))?;
    let db = recipedb::io::from_json(json)
        .map_err(|e| SnapshotError::Malformed(format!("corpus parse: {e}")))?;
    let recomputed = corpus_digest(&db);
    if recomputed != digest {
        return Err(SnapshotError::CorpusMismatch {
            expected: digest,
            got: recomputed,
        });
    }
    Ok(CorpusSnapshot {
        digest,
        origin,
        upload_bytes,
        db,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustering::distance::Metric;

    fn atlas() -> &'static CuisineAtlas {
        crate::testutil::shared_atlas()
    }

    fn digest_of(a: &CuisineAtlas) -> String {
        corpus_digest(a.db())
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn row_bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter().map(|row| bits(row)).collect()
    }

    /// Encode `a`, decode it over a re-parsed copy of its corpus, and
    /// check the result against `a` on every part the server serves.
    fn assert_roundtrip_is_bit_identical(a: &CuisineAtlas) {
        let digest = digest_of(a);
        let bytes = encode_atlas(a, &digest);
        let db =
            Arc::new(recipedb::io::from_json(&recipedb::io::to_json(a.db()).unwrap()).unwrap());
        let b = decode_atlas(&bytes, db, &digest, 2).unwrap();

        assert_eq!(a.cuisines(), b.cuisines());
        assert_eq!(a.patterns().len(), b.patterns().len());
        for (pa, pb) in a.patterns().iter().zip(b.patterns()) {
            assert_eq!(pa.cuisine, pb.cuisine);
            assert_eq!(pa.n_recipes, pb.n_recipes);
            assert_eq!(pa.itemsets, pb.itemsets);
        }
        let (fa, fb) = (a.features(), b.features());
        assert_eq!(fa.vocabulary, fb.vocabulary);
        assert_eq!(row_bits(&fa.binary), row_bits(&fb.binary));
        assert_eq!(fa.pattern_sets, fb.pattern_sets);
        for metric in [Metric::Euclidean, Metric::Cosine, Metric::Jaccard] {
            assert_eq!(
                bits(a.pattern_tree(metric).distances.data()),
                bits(b.pattern_tree(metric).distances.data()),
                "{metric}"
            );
        }
        assert_eq!(
            bits(a.authenticity_tree().distances.data()),
            bits(b.authenticity_tree().distances.data())
        );
        // Built lazily on the restored side.
        let (ma, mb) = (a.authenticity_matrix(), b.authenticity_matrix());
        assert_eq!(ma.cuisines, mb.cuisines);
        assert_eq!(ma.items, mb.items);
        assert_eq!(row_bits(&ma.relative), row_bits(&mb.relative));
        // The wall-clock knob is replaced by the caller's.
        assert_eq!(b.config().build_threads, 2);
    }

    #[test]
    fn atlas_roundtrip_is_bit_identical() {
        assert_roundtrip_is_bit_identical(atlas());

        // An uploaded corpus covering a subset of the cuisines.
        let full = atlas().db();
        let mut b = recipedb::store::RecipeDbBuilder::new();
        *b.catalog_mut() = full.catalog().clone();
        for &cuisine in Cuisine::ALL.iter().step_by(5) {
            for r in full.cuisine_recipes(cuisine) {
                b.add_recipe(
                    r.name.clone(),
                    cuisine,
                    r.ingredients.clone(),
                    r.processes.clone(),
                    r.utensils.clone(),
                );
            }
        }
        let subset =
            CuisineAtlas::from_shared(Arc::new(b.build().unwrap()), &AtlasConfig::quick(23));
        assert_eq!(subset.cuisines().len(), 6);
        assert_roundtrip_is_bit_identical(&subset);
    }

    #[test]
    fn atlas_snapshot_stores_no_matrices() {
        // quick(23)'s prevalence and relative matrices alone are 8.5 MB;
        // patterns, authenticity distances and trees fit in 64 KiB.
        let a = atlas();
        let bytes = encode_atlas(a, &digest_of(a));
        assert!(bytes.len() < 64 * 1024, "{} bytes", bytes.len());
    }

    #[test]
    fn version_is_checked_after_the_checksum() {
        let a = atlas();
        let digest = digest_of(a);
        let good = encode_atlas(a, &digest);
        let db = Arc::new(a.db().clone());
        // A damaged version field is damage.
        let mut flipped = good.clone();
        flipped[MAGIC.len()] ^= 0x01;
        let err = decode_atlas(&flipped, db.clone(), &digest, 1)
            .err()
            .unwrap();
        assert_eq!(err, SnapshotError::ChecksumMismatch);
        assert!(err.is_corruption());
        // A sound frame of another atlas version is not.
        let mut other = good[..good.len() - CHECKSUM_LEN].to_vec();
        other[MAGIC.len()..HEADER_LEN - 1].copy_from_slice(&(ATLAS_VERSION - 1).to_le_bytes());
        let mut hasher = Sha256::new();
        hasher.update(&other);
        other.extend_from_slice(&hasher.finalize());
        let err = decode_atlas(&other, db, &digest, 1).err().unwrap();
        assert_eq!(err, SnapshotError::UnsupportedVersion(ATLAS_VERSION - 1));
        assert!(!err.is_corruption());
        assert_eq!(
            peek_atlas(&other).unwrap_err(),
            SnapshotError::UnsupportedVersion(ATLAS_VERSION - 1)
        );
        // Corpus frames keep their own version.
        let corpus = encode_corpus(a.db(), CorpusOrigin::Generated, 0).unwrap();
        assert_eq!(
            corpus[MAGIC.len()..HEADER_LEN - 1],
            CORPUS_VERSION.to_le_bytes()
        );
    }

    #[test]
    fn atlas_snapshot_is_deterministic() {
        let a = atlas();
        let digest = digest_of(a);
        assert_eq!(encode_atlas(a, &digest), encode_atlas(a, &digest));
    }

    #[test]
    fn corpus_roundtrip_preserves_digest_and_provenance() {
        let a = atlas();
        let digest = digest_of(a);
        let bytes = encode_corpus(a.db(), CorpusOrigin::Uploaded, 123).unwrap();
        let peek = peek_corpus(&bytes).unwrap();
        assert_eq!(peek.digest, digest);
        assert_eq!(peek.origin, CorpusOrigin::Uploaded);
        assert_eq!(peek.upload_bytes, 123);
        let snap = decode_corpus(&bytes).unwrap();
        assert_eq!(snap.digest, digest);
        assert_eq!(corpus_digest(&snap.db), digest);
    }

    #[test]
    fn framed_upload_json_decodes_to_the_same_corpus() {
        let a = atlas();
        let digest = digest_of(a);
        // An upload body need not be `to_json`'s output: pretty-printed,
        // with a key the schema does not know.
        let mut value = serde_json::from_str(&recipedb::io::to_json(a.db()).unwrap()).unwrap();
        value["uploaded_by"] = serde_json::json!({"tool": "notebook", "rev": [1, 2]});
        let body = value.to_json_pretty();
        let bytes = frame_corpus_json(&digest, CorpusOrigin::Uploaded, 77, body.as_bytes());
        let peek = peek_corpus(&bytes).unwrap();
        assert_eq!(
            (peek.digest.as_str(), peek.upload_bytes),
            (digest.as_str(), 77)
        );
        let snap = decode_corpus(&bytes).unwrap();
        assert_eq!(snap.digest, digest);
        assert_eq!(
            recipedb::io::to_json(&snap.db).unwrap(),
            recipedb::io::to_json(a.db()).unwrap()
        );
        // The digest is still verified against the framed JSON.
        let lying = frame_corpus_json("sha256:other", CorpusOrigin::Uploaded, 77, body.as_bytes());
        assert!(matches!(
            decode_corpus(&lying).unwrap_err(),
            SnapshotError::CorpusMismatch { .. }
        ));
        // `encode_corpus` frames the same way.
        let encoded = encode_corpus(a.db(), CorpusOrigin::Generated, 0).unwrap();
        let json = recipedb::io::to_json(a.db()).unwrap();
        assert_eq!(
            encoded,
            frame_corpus_json(&digest, CorpusOrigin::Generated, 0, json.as_bytes())
        );
    }

    #[test]
    fn wrong_corpus_is_refused() {
        let a = atlas();
        let bytes = encode_atlas(a, &digest_of(a));
        let err = decode_atlas(&bytes, Arc::new(a.db().clone()), "sha256:other", 1)
            .err()
            .expect("mismatched digest must be refused");
        assert!(matches!(err, SnapshotError::CorpusMismatch { .. }));
    }

    #[test]
    fn damage_is_detected_never_panics() {
        let a = atlas();
        let digest = digest_of(a);
        let good = encode_atlas(a, &digest);
        let db = Arc::new(a.db().clone());

        // Truncations at every kind of boundary.
        for cut in [
            0,
            1,
            HEADER_LEN - 1,
            HEADER_LEN,
            good.len() / 2,
            good.len() - 1,
        ] {
            let err = decode_atlas(&good[..cut], db.clone(), &digest, 1)
                .err()
                .expect("truncated snapshot must be refused");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::ChecksumMismatch
                ),
                "cut at {cut}: {err}"
            );
        }
        // A single flipped bit anywhere breaks the checksum (or the
        // magic).
        for pos in [0, 9, HEADER_LEN, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_atlas(&bad, db.clone(), &digest, 1).is_err(),
                "flip at {pos}"
            );
        }
        // Kind confusion both ways.
        let corpus = encode_corpus(a.db(), CorpusOrigin::Generated, 0).unwrap();
        assert_eq!(
            decode_atlas(&corpus, db.clone(), &digest, 1).err(),
            Some(SnapshotError::WrongKind)
        );
        assert_eq!(decode_corpus(&good).unwrap_err(), SnapshotError::WrongKind);
    }
}
