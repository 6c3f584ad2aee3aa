"""
The contract registry: versions, review, compatibility
======================================================

Contracts live in a versioned registry.  Publishing stores a draft; a human
approves it, which deprecates whatever was approved before (there is at
most one official version per name).  Once a version is approved, new
drafts must be compatible with it under the entry's mode -- backward by
default: every row valid under the old contract must stay valid under the
new one.

The registry is a directory of canonical JSON files behind a small HTTP
API; this demo runs the service in-process on an ephemeral local port.
"""

import copy
import tempfile

from contractforge import (FieldSpec, RegistryClient, RegistryRejection,
                           RegistryServer, RegistryStore, infer_contract,
                           ingest)

CSV = b"""\
order_id,total,status
1,9.50,active
2,19.00,inactive
3,23.75,active
"""

contract = infer_contract(ingest(CSV, "delimited", dataset_name="orders"))

# The registry directory is removed at the end, or at exit if the demo fails.
workdir = tempfile.TemporaryDirectory(prefix="registry-demo-")
root = workdir.name
server = RegistryServer(RegistryStore(root)).start()
client = RegistryClient(server.address)
print("registry serving", root, "at", server.address)

version = client.publish("orders", contract)
print("published draft v", version)
client.approve("orders", version, reviewer="alice")
print("approved by alice; latest approved:",
      client.get_latest("orders").version)

# A widening change (new nullable column) is backward compatible.
widened = copy.deepcopy(contract)
widened.fields.append(FieldSpec("note", "string", True))
print("widened draft accepted as v", client.publish("orders", widened))

# A narrowing change is rejected with the offending fields named.
narrowed = copy.deepcopy(contract)
narrowed.fields[0].logical_type = "boolean"
narrowed.fields[0].constraints = None
try:
    client.publish("orders", narrowed)
except RegistryRejection as rejection:
    print("rejected:")
    for reason in rejection.reasons:
        print("   ", reason)

# The compat endpoint answers the same question without publishing.
verdict = client.check_compat("orders", narrowed)
print("dry-run verdict:", verdict.compatible)

# Reviewer feedback is stored with the version; it never retrains anything,
# it is simply the captured review trail.
client.feedback("orders", 1, author="bob", note="tighten the total range")
trail = client.list_versions("orders")
for record in trail["versions"]:
    print(f"  v{record['version']}: {record['status']}, "
          f"{len(record['feedback'])} feedback note(s)")

server.stop()
workdir.cleanup()
