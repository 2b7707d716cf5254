#!/usr/bin/env python3
"""Time travel at scale: the archival vacuum and the history APIs.

The no-overwrite storage system keeps every version forever — which is
wonderful for time travel and terrible for the magnetic disk.  POSTGRES's
answer ([STON87B], leaned on throughout the paper) was the vacuum
cleaner: dead versions migrate to an *archive* relation on the WORM
jukebox, and historical queries transparently read both.

This example edits a document many times, archives the history to
write-once media, and shows that:

* the current relation shrinks back down,
* every historical state is still readable (`as_of`, time ranges,
  `db.history`),
* the archive really lives on the jukebox.

Run:  python examples/archival_history.py
"""

from repro.db import Database


def main() -> None:
    db = Database()
    db.execute('create DOCS (title = text, body = text, revision = int4)')

    # -- write ten revisions of a document ---------------------------------
    stamps = []
    db.execute('append DOCS (title = "design", '
               'body = "draft 0", revision = 0)')
    stamps.append((0, db.clock.now()))
    for revision in range(1, 10):
        db.execute(f'replace DOCS (body = "draft {revision}", '
                   f'revision = {revision}) where DOCS.title = "design"')
        stamps.append((revision, db.clock.now()))

    relation = db.get_class("DOCS")

    def stored_versions() -> int:
        with db.latch:   # raw page reads take the engine latch
            return len(list(relation.scan_versions()))

    versions_before = stored_versions()
    print(f"versions on magnetic disk before archiving: {versions_before}")

    # -- migrate history to the WORM jukebox --------------------------------
    result = db.archive_class("DOCS")
    print(f"archived {result['archived']} dead versions to the jukebox "
          f"(class a_DOCS on the 'worm' storage manager)")
    print(f"versions on magnetic disk now: "
          f"{stored_versions()}")

    # -- every historical state survives ------------------------------------
    revision, stamp = stamps[3]
    row = next(db.scan("DOCS", as_of=stamp))
    print(f"\nas of revision {revision}'s commit: body = {row.values[1]!r}")

    t_start, t_end = stamps[2][1], stamps[5][1]
    in_range = sorted(t.values[2] for t in
                      db.scan("DOCS", as_of=t_start, until=t_end))
    print(f"revisions alive during [rev2, rev5]: {in_range}")

    # -- the full lineage of the logical tuple ------------------------------
    oid = next(db.scan("DOCS")).oid
    chain = db.history("DOCS", oid)
    print(f"\nhistory of the document ({len(chain)} versions):")
    for version in chain[:3] + chain[-1:]:
        closing = (f"{version['valid_to']:.3f}"
                   if version['valid_to'] is not None else "now")
        print(f"  [{version['valid_from']:.3f} .. {closing}) "
              f"{version['values'][1]!r}")

    # -- and the archive is genuinely on write-once media -------------------
    worm = db.storage_manager("worm")
    worm.sync_all()
    print(f"\njukebox media blocks in use: "
          f"{worm.base.media_blocks_used()}")
    assert db.check_integrity() == []
    print("integrity check: clean")
    db.close()


if __name__ == "__main__":
    main()
