//! The process-global flight recorder's install/uninstall cycle, in a
//! process of its own so no other test sees the global sink change.

use ppp_obs::{flight_dump, flight_recorder, install_flight, uninstall_flight, Scratch};

#[test]
fn uninstalled_recorder_stops_dumping_into_its_removed_directory() {
    let dir = Scratch::new("flight-install").expect("scratch dir");
    install_flight(dir.path(), 16);
    ppp_obs::global().info("before-dump", &[]);
    let path = flight_dump("unit").expect("dump written");
    assert_eq!(path, dir.path().join("flight-unit.json"));
    let doc = std::fs::read_to_string(&path).expect("dump readable");
    assert!(doc.contains("before-dump"), "{doc}");
    // Only the dump itself is left: its temporary was renamed away.
    assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 1);

    uninstall_flight();
    assert!(flight_recorder().is_none());
    let gone = dir.path().to_owned();
    drop(dir);
    assert_eq!(flight_dump("after"), None);
    assert!(!gone.exists(), "no dump re-created the removed directory");
}
