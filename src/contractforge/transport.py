"""The one HTTP request path, shared by the registry client and the HTTP backend."""

import functools
import http.client
import json
import urllib.error
import urllib.parse
import urllib.request

# Left as they are when a URL is percent-encoded, so an encoded URL passes
# unchanged while spaces and non-ASCII names in a path still reach the server.
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Hands a 3xx back as the reply instead of following it: a followed
    redirect would carry every header, ``Authorization`` included, to
    whatever host and scheme the ``Location`` names."""

    def redirect_request(self, *args):
        return None


@functools.cache
def _opener() -> urllib.request.OpenerDirector:
    # Built on first use, not at import: on newer Pythons the https handler
    # loads the CA store when it is made.
    return urllib.request.build_opener(_NoRedirect)


def send(method: str, url: str, doc=None, *, timeout: float,
         headers: dict | None = None) -> tuple[int, bytes]:
    """Send one request, with ``doc`` as its JSON body unless it is None.

    Returns the status and the raw body of whatever the server answered,
    error statuses and redirects included: a redirect is not followed.
    Every transport failure -- refused or reset connection, timeout, protocol
    error, malformed or non-HTTP URL -- raises ``OSError``.  Proxies come
    from the ``*_proxy`` environment variables as set at the first call.
    """
    if not url.lower().startswith(("http://", "https://")):
        raise OSError(f"not an http(s) URL: {url!r}")
    data = None if doc is None else json.dumps(doc).encode("utf-8")
    headers = {"Content-Type": "application/json", **(headers or {})}
    try:
        request = urllib.request.Request(urllib.parse.quote(url, safe=_URL_SAFE),
                                         data=data, headers=headers, method=method)
        try:
            response = _opener().open(request, timeout=timeout)
        except urllib.error.HTTPError as exc:
            response = exc
        with response:
            return response.status, response.read()
    except (http.client.HTTPException, ValueError) as exc:
        raise OSError(f"{type(exc).__name__}: {exc}") from exc
