//! The §1 university scenario: Students with hobby and course sets.

use crate::{random_set, SplitMix64};

/// A pool of hobby names, so example databases read like the paper's
/// (`"Baseball"`, `"Fishing"`, …) rather than opaque integers.
pub const HOBBY_NAMES: &[&str] = &[
    "Baseball",
    "Fishing",
    "Tennis",
    "Golf",
    "Football",
    "Swimming",
    "Chess",
    "Skiing",
    "Running",
    "Cycling",
    "Hiking",
    "Climbing",
    "Sailing",
    "Rowing",
    "Archery",
    "Judo",
    "Karate",
    "Kendo",
    "Shogi",
    "Go",
    "Painting",
    "Pottery",
    "Calligraphy",
    "Origami",
    "Photography",
    "Gardening",
    "Cooking",
    "Baking",
    "Reading",
    "Writing",
    "Astronomy",
    "Birdwatching",
    "Surfing",
    "Skating",
    "Bowling",
    "Billiards",
    "Darts",
    "Badminton",
    "Volleyball",
    "Basketball",
    "Handball",
    "Rugby",
    "Cricket",
    "Squash",
    "Fencing",
    "Boxing",
    "Wrestling",
    "Weightlifting",
    "Yoga",
    "Dancing",
];

/// One generated student.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniversityScenario {
    /// Student name, e.g. `"Student0042"`.
    pub name: String,
    /// Hobby set (strings drawn from [`HOBBY_NAMES`]).
    pub hobbies: Vec<String>,
    /// Course numbers (stand-ins for `Course` OIDs).
    pub courses: Vec<u64>,
}

/// Generates `n` students, each with 1–`max_hobbies` hobbies and
/// 2–`max_courses` courses, deterministically from `seed`.
pub fn university_hobbies(
    n: usize,
    max_hobbies: usize,
    max_courses: usize,
    seed: u64,
) -> Vec<UniversityScenario> {
    assert!(max_hobbies >= 1 && max_hobbies <= HOBBY_NAMES.len());
    assert!(max_courses >= 2);
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let nh = 1 + rng.below(max_hobbies as u64) as usize;
            let picks = random_set(&mut rng, HOBBY_NAMES.len() as u64, nh);
            let hobbies = picks.iter().map(|&h| HOBBY_NAMES[h as usize].to_owned());
            let nc = 2 + rng.below(max_courses as u64 - 1) as usize;
            UniversityScenario {
                name: format!("Student{i:04}"),
                hobbies: hobbies.collect(),
                courses: random_set(&mut rng, 500, nc),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_respects_bounds_and_is_deterministic() {
        let a = university_hobbies(50, 5, 6, 42);
        let b = university_hobbies(50, 5, 6, 42);
        assert_eq!(a, b);
        for s in &a {
            assert!(!s.hobbies.is_empty() && s.hobbies.len() <= 5);
            assert!(s.courses.len() >= 2 && s.courses.len() <= 6);
            assert!(s.name.starts_with("Student"));
            // Hobbies are distinct and from the pool.
            for h in &s.hobbies {
                assert!(HOBBY_NAMES.contains(&h.as_str()));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            university_hobbies(10, 5, 6, 1),
            university_hobbies(10, 5, 6, 2)
        );
    }
}
