//! The 26 geo-cultural cuisines of the paper, with the per-region recipe
//! counts of Table I and representative geographic centroids used by the
//! geographical validation tree (Figure 6).

/// One of the paper's 26 geo-cultural cuisine regions (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // variant names are self-describing region names
pub enum Cuisine {
    Australian,
    Belgian,
    Canadian,
    Caribbean,
    CentralAmerican,
    ChineseAndMongolian,
    Deutschland,
    EasternEuropean,
    French,
    Greek,
    IndianSubcontinent,
    Irish,
    Italian,
    Japanese,
    Mexican,
    RestAfrica,
    SouthAmerican,
    SoutheastAsian,
    SpanishAndPortuguese,
    Thai,
    Korean,
    MiddleEastern,
    NorthernAfrica,
    Scandinavian,
    UK,
    US,
}

impl Cuisine {
    /// All 26 cuisines in the order Table I lists them.
    pub const ALL: [Cuisine; 26] = [
        Cuisine::Australian,
        Cuisine::Belgian,
        Cuisine::Canadian,
        Cuisine::Caribbean,
        Cuisine::CentralAmerican,
        Cuisine::ChineseAndMongolian,
        Cuisine::Deutschland,
        Cuisine::EasternEuropean,
        Cuisine::French,
        Cuisine::Greek,
        Cuisine::IndianSubcontinent,
        Cuisine::Irish,
        Cuisine::Italian,
        Cuisine::Japanese,
        Cuisine::Mexican,
        Cuisine::RestAfrica,
        Cuisine::SouthAmerican,
        Cuisine::SoutheastAsian,
        Cuisine::SpanishAndPortuguese,
        Cuisine::Thai,
        Cuisine::Korean,
        Cuisine::MiddleEastern,
        Cuisine::NorthernAfrica,
        Cuisine::Scandinavian,
        Cuisine::UK,
        Cuisine::US,
    ];

    /// Number of cuisines.
    pub const COUNT: usize = 26;

    /// Stable dense index in `0..26`, following the Table I order.
    pub fn index(self) -> usize {
        Cuisine::ALL
            .iter()
            .position(|&c| c == self)
            .expect("cuisine is in ALL")
    }

    /// Inverse of [`Cuisine::index`].
    pub fn from_index(i: usize) -> Option<Cuisine> {
        Cuisine::ALL.get(i).copied()
    }

    /// The region name exactly as Table I prints it.
    pub fn name(self) -> &'static str {
        match self {
            Cuisine::Australian => "Australian",
            Cuisine::Belgian => "Belgian",
            Cuisine::Canadian => "Canadian",
            Cuisine::Caribbean => "Caribbean",
            Cuisine::CentralAmerican => "Central American",
            Cuisine::ChineseAndMongolian => "Chinese and Mongolian",
            Cuisine::Deutschland => "Deutschland",
            Cuisine::EasternEuropean => "Eastern European",
            Cuisine::French => "French",
            Cuisine::Greek => "Greek",
            Cuisine::IndianSubcontinent => "Indian Subcontinent",
            Cuisine::Irish => "Irish",
            Cuisine::Italian => "Italian",
            Cuisine::Japanese => "Japanese",
            Cuisine::Mexican => "Mexican",
            Cuisine::RestAfrica => "Rest Africa",
            Cuisine::SouthAmerican => "South American",
            Cuisine::SoutheastAsian => "Southeast Asian",
            Cuisine::SpanishAndPortuguese => "Spanish and Portuguese",
            Cuisine::Thai => "Thai",
            Cuisine::Korean => "Korean",
            Cuisine::MiddleEastern => "Middle Eastern",
            Cuisine::NorthernAfrica => "Northern Africa",
            Cuisine::Scandinavian => "Scandinavian",
            Cuisine::UK => "UK",
            Cuisine::US => "US",
        }
    }

    /// Parse a Table I region name (exact match).
    pub fn from_name(name: &str) -> Option<Cuisine> {
        Cuisine::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// The identifier a corpus stores for this cuisine
    /// (`"ChineseAndMongolian"`, not the Table I name).
    fn ident(self) -> &'static str {
        IDENTS[self.index()]
    }

    /// Parse a corpus's cuisine identifier (see [`Cuisine::ident`]).
    pub(crate) fn from_ident(ident: &str) -> Option<Cuisine> {
        IDENTS
            .iter()
            .position(|&s| s == ident)
            .map(|i| Cuisine::ALL[i])
    }

    /// The number of recipes Table I attributes to this region.
    pub fn paper_recipe_count(self) -> usize {
        match self {
            Cuisine::Australian => 5_823,
            Cuisine::Belgian => 1_060,
            Cuisine::Canadian => 6_700,
            Cuisine::Caribbean => 3_026,
            Cuisine::CentralAmerican => 460,
            Cuisine::ChineseAndMongolian => 5_896,
            Cuisine::Deutschland => 4_323,
            Cuisine::EasternEuropean => 2_503,
            Cuisine::French => 6_381,
            Cuisine::Greek => 4_185,
            Cuisine::IndianSubcontinent => 6_464,
            Cuisine::Irish => 2_532,
            Cuisine::Italian => 16_582,
            Cuisine::Japanese => 2_041,
            Cuisine::Mexican => 14_463,
            Cuisine::RestAfrica => 2_740,
            Cuisine::SouthAmerican => 7_176,
            Cuisine::SoutheastAsian => 1_940,
            Cuisine::SpanishAndPortuguese => 2_844,
            Cuisine::Thai => 2_605,
            Cuisine::Korean => 668,
            Cuisine::MiddleEastern => 3_905,
            Cuisine::NorthernAfrica => 1_611,
            Cuisine::Scandinavian => 2_811,
            Cuisine::UK => 4_401,
            Cuisine::US => 5_031,
        }
    }

    /// Total recipes across all regions per Table I.
    pub fn paper_total_recipes() -> usize {
        Cuisine::ALL.iter().map(|c| c.paper_recipe_count()).sum()
    }

    /// A representative geographic centroid `(latitude, longitude)` in
    /// degrees, used for the geographical validation clustering (Figure 6).
    /// Aggregate regions use the centroid of their dominant area.
    pub fn centroid(self) -> (f64, f64) {
        match self {
            Cuisine::Australian => (-25.3, 134.0),
            Cuisine::Belgian => (50.8, 4.5),
            Cuisine::Canadian => (56.1, -96.0),
            Cuisine::Caribbean => (18.2, -66.5),
            Cuisine::CentralAmerican => (12.8, -85.0),
            Cuisine::ChineseAndMongolian => (36.5, 104.0),
            Cuisine::Deutschland => (51.1, 10.4),
            Cuisine::EasternEuropean => (50.4, 30.5),
            Cuisine::French => (46.6, 2.2),
            Cuisine::Greek => (39.0, 22.0),
            Cuisine::IndianSubcontinent => (21.0, 78.0),
            Cuisine::Irish => (53.4, -8.2),
            Cuisine::Italian => (42.8, 12.8),
            Cuisine::Japanese => (36.2, 138.2),
            Cuisine::Mexican => (23.6, -102.5),
            Cuisine::RestAfrica => (-1.0, 21.0),
            Cuisine::SouthAmerican => (-15.6, -60.0),
            Cuisine::SoutheastAsian => (5.0, 110.0),
            Cuisine::SpanishAndPortuguese => (40.0, -4.7),
            Cuisine::Thai => (15.0, 101.0),
            Cuisine::Korean => (36.5, 127.9),
            Cuisine::MiddleEastern => (29.3, 45.0),
            Cuisine::NorthernAfrica => (28.0, 9.5),
            Cuisine::Scandinavian => (62.0, 15.0),
            Cuisine::UK => (54.0, -2.4),
            Cuisine::US => (39.8, -98.6),
        }
    }
}

/// Corpus identifiers, in [`Cuisine::ALL`] order: the variant names.
const IDENTS: [&str; Cuisine::COUNT] = [
    "Australian",
    "Belgian",
    "Canadian",
    "Caribbean",
    "CentralAmerican",
    "ChineseAndMongolian",
    "Deutschland",
    "EasternEuropean",
    "French",
    "Greek",
    "IndianSubcontinent",
    "Irish",
    "Italian",
    "Japanese",
    "Mexican",
    "RestAfrica",
    "SouthAmerican",
    "SoutheastAsian",
    "SpanishAndPortuguese",
    "Thai",
    "Korean",
    "MiddleEastern",
    "NorthernAfrica",
    "Scandinavian",
    "UK",
    "US",
];

impl serde_json::Serialize for Cuisine {
    fn serialize(&self, out: &mut String) {
        serde_json::Serialize::serialize(self.ident(), out);
    }
}

impl std::fmt::Display for Cuisine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_26_distinct_cuisines() {
        let mut names: Vec<&str> = Cuisine::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26);
        assert_eq!(Cuisine::COUNT, 26);
    }

    #[test]
    fn index_roundtrips() {
        for (i, &c) in Cuisine::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(Cuisine::from_index(i), Some(c));
        }
        assert_eq!(Cuisine::from_index(26), None);
    }

    #[test]
    fn name_roundtrips() {
        for &c in &Cuisine::ALL {
            assert_eq!(Cuisine::from_name(c.name()), Some(c));
        }
        assert_eq!(Cuisine::from_name("Atlantis"), None);
    }

    #[test]
    fn ident_is_the_serialized_variant_name() {
        for &c in &Cuisine::ALL {
            let json = serde_json::to_string(&c).unwrap();
            assert_eq!(json, format!("\"{c:?}\""));
            let ident = json.trim_matches('"');
            assert_eq!(Cuisine::from_ident(ident), Some(c), "{json}");
        }
        assert_eq!(Cuisine::from_ident("Chinese and Mongolian"), None);
        assert_eq!(Cuisine::from_ident("Atlantis"), None);
    }

    #[test]
    fn paper_total_matches_sum_of_table1() {
        // Table I's per-region counts. The paper's abstract reports a grand
        // total of 118,071 recipes across all sources; Table I's per-region
        // sum is what the mining pipeline actually consumes.
        let total = Cuisine::paper_total_recipes();
        assert_eq!(
            total,
            Cuisine::ALL
                .iter()
                .map(|c| c.paper_recipe_count())
                .sum::<usize>()
        );
        // Sanity: within a few percent of the abstract's figure.
        assert!((100_000..130_000).contains(&total), "total = {total}");
    }

    #[test]
    fn centroids_are_valid_coordinates() {
        for &c in &Cuisine::ALL {
            let (lat, lon) = c.centroid();
            assert!((-90.0..=90.0).contains(&lat), "{c}: lat {lat}");
            assert!((-180.0..=180.0).contains(&lon), "{c}: lon {lon}");
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(
            Cuisine::ChineseAndMongolian.to_string(),
            "Chinese and Mongolian"
        );
    }
}
