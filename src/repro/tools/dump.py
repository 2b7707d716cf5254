"""Logical dump and restore (a miniature ``pg_dump``).

A dump is a directory containing:

* ``schema.json`` — classes (with storage managers), indexes, and large
  ADT definitions;
* ``data.jsonl`` — one JSON record per visible tuple, per class;
* ``objects/`` — one file per reachable large object (bytes), plus a
  manifest mapping old designators to implementation/compression so
  restore can recreate them faithfully.

Restore loads everything into a (fresh) database, allocating **new**
designators for large objects and rewriting the designator values stored
in large-ADT columns — oids are never guaranteed stable across databases.

History is not dumped: like ``pg_dump``, this captures the current state
(pass ``as_of`` for a point-in-time dump of some past state — the
no-overwrite storage system makes that trivial).
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

from repro.db import PG_LARGEOBJECT, SYSTEM_PREFIXES
from repro.errors import ReproError
from repro.lo.manager import designator_oid, is_chunked

if TYPE_CHECKING:
    from repro.db import Database


def _is_user_class(name: str) -> bool:
    return name != PG_LARGEOBJECT and not name.startswith(SYSTEM_PREFIXES)


def _user_classes(db: "Database") -> list[str]:
    return list(filter(_is_user_class, db.catalog.relation_names()))


def _encode_value(value):
    if isinstance(value, bytes):
        return {"$bytes": value.hex()}
    return value


def _decode_value(value):
    if isinstance(value, dict) and "$bytes" in value:
        return bytes.fromhex(value["$bytes"])
    return value


def dump_database(db: "Database", target_dir: str,
                  as_of: float | None = None) -> dict:
    """Write a logical dump of *db* into *target_dir*; returns a summary."""
    os.makedirs(target_dir, exist_ok=True)
    objects_dir = os.path.join(target_dir, "objects")
    os.makedirs(objects_dir, exist_ok=True)

    large_columns: dict[str, list[int]] = {}
    schema = {"classes": [], "indexes": [], "large_types": []}
    for name in _user_classes(db):
        entry = db.catalog.get_relation(name)
        schema["classes"].append({
            "name": name,
            "smgr": entry.smgr_name,
            "columns": entry.schema.to_dict(),
        })
        large_columns[name] = [
            i for i, attr in enumerate(entry.schema.attributes)
            if db.types.exists(attr.type_name)
            and db.types.get(attr.type_name).is_large]
    for index_name, entry in sorted(db.catalog.indexes.items()):
        if not _is_user_class(entry.relation):
            continue
        schema["indexes"].append({"name": index_name,
                                  "relation": entry.relation,
                                  "attribute": entry.attribute})
    for type_name in db.types.large_names():
        definition = db.types.get(type_name)
        schema["large_types"].append({
            "name": type_name, "storage": definition.storage,
            "compression": definition.compression})
    with open(os.path.join(target_dir, "schema.json"), "w") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)

    manifest: dict[str, dict] = {}
    tuples = 0
    with open(os.path.join(target_dir, "data.jsonl"), "w") as fh:
        for name in _user_classes(db):
            for tup in db.scan(name, as_of=as_of):
                values = [_encode_value(v) for v in tup.values]
                for position in large_columns[name]:
                    designator = tup.values[position]
                    if designator:
                        _dump_object(db, designator, objects_dir,
                                     manifest, as_of)
                fh.write(json.dumps({"class": name, "values": values})
                         + "\n")
                tuples += 1
    with open(os.path.join(target_dir, "objects.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return {"classes": len(schema["classes"]), "tuples": tuples,
            "objects": len(manifest)}


def _dump_object(db: "Database", designator: str, objects_dir: str,
                 manifest: dict, as_of: float | None) -> None:
    if designator in manifest:
        return
    filename = f"obj{len(manifest)}.bin"
    try:
        with db.lo.open(designator, as_of=as_of) as obj:
            data = obj.read()
    except ReproError:
        # Native-file objects cannot time travel; dump current contents.
        with db.lo.open(designator) as obj:
            data = obj.read()
    with open(os.path.join(objects_dir, filename), "wb") as fh:
        fh.write(data)
    impl = db.lo.implementation(designator)
    compression = "none"            # a native file is stored as is
    if is_chunked(designator):
        compression = db.catalog.get_large_object(
            designator_oid(designator)).compression
    manifest[designator] = {"file": filename, "impl": impl,
                            "compression": compression}


def restore_database(db: "Database", source_dir: str) -> dict:
    """Load a dump produced by :func:`dump_database` into *db*."""
    with open(os.path.join(source_dir, "schema.json")) as fh:
        schema = json.load(fh)
    with open(os.path.join(source_dir, "objects.json")) as fh:
        manifest = json.load(fh)

    for large_type in schema["large_types"]:
        if not db.types.exists(large_type["name"]):
            db.create_large_type(large_type["name"],
                                 storage=large_type["storage"],
                                 compression=large_type["compression"])
    large_columns: dict[str, list[int]] = {}
    for cls in schema["classes"]:
        columns = [(c["name"], c["type"]) for c in cls["columns"]]
        db.create_class(cls["name"], columns, smgr=cls["smgr"])
        large_columns[cls["name"]] = [
            i for i, (_n, type_name) in enumerate(columns)
            if db.types.exists(type_name)
            and db.types.get(type_name).is_large]
    for index in schema["indexes"]:
        db.create_index(index["name"], index["relation"],
                        index["attribute"])

    new_designators: dict[str, str] = {}
    tuples = 0
    with db.begin() as txn:
        for old, info in manifest.items():
            impl = info["impl"]
            if impl == "ufile":
                designator = db.lo.create_ufile(old)
            elif impl == "pfile":
                designator = db.lo.newfilename(txn)
            else:
                designator = db.lo.create(txn, impl,
                                          compression=info["compression"])
            with open(os.path.join(source_dir, "objects", info["file"]),
                      "rb") as fh:
                data = fh.read()
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(data)
            new_designators[old] = designator

        with open(os.path.join(source_dir, "data.jsonl")) as fh:
            for line in fh:
                record = json.loads(line)
                values = [_decode_value(v) for v in record["values"]]
                for position in large_columns[record["class"]]:
                    if values[position]:
                        values[position] = new_designators[values[position]]
                db.insert(txn, record["class"], tuple(values))
                tuples += 1
    return {"classes": len(schema["classes"]), "tuples": tuples,
            "objects": len(new_designators)}
